//! Exact pin of every Table 1 simulation: for each of the 12 networks and
//! each of the six methods, the simulator's cycles, DRAM traffic, MAC/VEC
//! overlap, per-resource busy cycles, total energy (as f64 bits) and an
//! FNV-1a hash of the schedule (`task, resource, start, end` per trace
//! entry) must equal the recorded values. Any change to the dataflow
//! builders, the timing/energy models or the executor's start order shows
//! up here as an exact mismatch rather than a drifted ratio.
//!
//! On a mismatch the test prints every current line in the layout of
//! `EXPECTED`, ready to paste once a change is meant to move Table 2.

use mas::api::{Method, Planner};
use mas::sim::SimReport;
use mas::workloads::Network;

/// FNV-1a over the schedule: every trace entry's task index, resource name,
/// start and end cycle, in trace order.
fn trace_hash(report: &SimReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let trace = report.trace.as_ref().expect("planner runs record a trace");
    for e in trace.entries() {
        eat(&(e.task.index() as u64).to_le_bytes());
        eat(e.resource.to_string().as_bytes());
        eat(&e.start_cycle.to_le_bytes());
        eat(&e.end_cycle.to_le_bytes());
    }
    hash
}

/// Simulates every method on every network and renders one line per run,
/// checking on the way that `compare_all`'s rows agree with the full
/// reports.
fn measure() -> Vec<String> {
    let planner = Planner::edge_default();
    let mut lines = Vec::new();
    for network in Network::all() {
        let workload = network.attention_workload(1);
        let table = planner.compare_all(&workload).unwrap();
        for method in Method::all() {
            let row = table.row(method).unwrap();
            let report = planner.run(method, &workload).unwrap().report;
            assert_eq!(row.cycles, report.total_cycles, "{network} {method}");
            assert_eq!(
                row.energy_pj.to_bits(),
                report.energy.total_pj().to_bits(),
                "{network} {method}"
            );
            let busy: Vec<String> = report
                .busy_cycles
                .iter()
                .map(|(resource, cycles)| format!("{resource}={cycles}"))
                .collect();
            lines.push(format!(
                "{network} | {method} | cycles {} | dram {}/{} | overlap {} | {} | energy {:#018x} | trace {:#018x}",
                row.cycles,
                row.dram_read_bytes,
                row.dram_write_bytes,
                report.mac_vec_overlap_cycles,
                busy.join(" "),
                row.energy_pj.to_bits(),
                trace_hash(&report),
            ));
        }
    }
    lines
}

/// One line per network and method: cycles, DRAM read/write bytes, MAC/VEC
/// overlap cycles, busy cycles per resource, total energy as f64 bits and
/// the trace hash. Recorded before the executor's scheduling loop was
/// rewritten around dense resource slots.
const EXPECTED: &str = "\
BERT-Base & T5-Base | Layer-Wise | cycles 2501216 | dram 14942208/13369344 | overlap 0 | DMA-in=1867776 DMA-out=1671168 MAC0=791040 MAC1=791040 VEC0=393984 VEC1=393984 | energy 0x41efaecccccccccb | trace 0x989ef6905839c773
BERT-Base & T5-Base | Soft-Pipe | cycles 1706480 | dram 8650752/7077888 | overlap 403600 | DMA-in=1081344 DMA-out=884736 MAC0=791040 MAC1=791040 VEC0=393984 VEC1=393984 | energy 0x41e5eeccccccccc8 | trace 0x1acda9f9bb57c8fc
BERT-Base & T5-Base | FLAT | cycles 1219840 | dram 2359296/786432 | overlap 10528 | DMA-in=294912 DMA-out=98304 MAC0=791040 MAC1=791040 VEC0=393984 VEC1=393984 | energy 0x41d85d9999999996 | trace 0xb7d9ef851ca9a4e5
BERT-Base & T5-Base | TileFlow | cycles 849424 | dram 2359296/786432 | overlap 511840 | DMA-in=294912 DMA-out=98304 MAC0=791040 MAC1=791040 VEC0=393984 VEC1=393984 | energy 0x41d85d9999999996 | trace 0xb88c9e2efc24e123
BERT-Base & T5-Base | FuseMax | cycles 844832 | dram 2359296/786432 | overlap 461096 | DMA-in=294912 DMA-out=98304 MAC0=804864 MAC1=804864 VEC0=415488 VEC1=415488 | energy 0x41dafc666666667e | trace 0xb598bd96de94cac7
BERT-Base & T5-Base | MAS-Attention | cycles 825856 | dram 2359296/786432 | overlap 695232 | DMA-in=294912 DMA-out=98304 MAC0=791040 MAC1=791040 VEC0=393984 VEC1=393984 | energy 0x41d85d9999999996 | trace 0xb94cf66b19444451
BERT-Large & T5-Large | Layer-Wise | cycles 3320416 | dram 19922944/17825792 | overlap 0 | DMA-in=2490368 DMA-out=2228224 MAC0=1054720 MAC1=1054720 VEC0=525312 VEC1=525312 | energy 0x41f51f3333333333 | trace 0x21cf34b998254cd6
BERT-Large & T5-Large | Soft-Pipe | cycles 2263536 | dram 11534336/9437184 | overlap 535440 | DMA-in=1441792 DMA-out=1179648 MAC0=1054720 MAC1=1054720 VEC0=525312 VEC1=525312 | energy 0x41ed3e6666666660 | trace 0xd43c8cf188cb6ad7
BERT-Large & T5-Large | FLAT | cycles 1614848 | dram 3145728/1048576 | overlap 14112 | DMA-in=393216 DMA-out=131072 MAC0=1054720 MAC1=1054720 VEC0=525312 VEC1=525312 | energy 0x41e03e6666666663 | trace 0x9c4323bc5a775473
BERT-Large & T5-Large | TileFlow | cycles 1119152 | dram 3145728/1048576 | overlap 672640 | DMA-in=393216 DMA-out=131072 MAC0=1054720 MAC1=1054720 VEC0=525312 VEC1=525312 | energy 0x41e03e6666666663 | trace 0x11fd229646142b46
BERT-Large & T5-Large | FuseMax | cycles 1111080 | dram 3145728/1048576 | overlap 614256 | DMA-in=393216 DMA-out=131072 MAC0=1073152 MAC1=1073152 VEC0=553984 VEC1=553984 | energy 0x41e1fd99999999af | trace 0xbff9a5e3b088ce94
BERT-Large & T5-Large | MAS-Attention | cycles 1089536 | dram 3145728/1048576 | overlap 924288 | DMA-in=393216 DMA-out=131072 MAC0=1054720 MAC1=1054720 VEC0=525312 VEC1=525312 | energy 0x41e03e6666666663 | trace 0x3095ddacccd68405
BERT-Small | Layer-Wise | cycles 1682016 | dram 9961472/8912896 | overlap 0 | DMA-in=1245184 DMA-out=1114112 MAC0=527360 MAC1=527360 VEC0=262656 VEC1=262656 | energy 0x41e51f3333333331 | trace 0xf130d6c069820225
BERT-Small | Soft-Pipe | cycles 1149424 | dram 5767168/4718592 | overlap 271760 | DMA-in=720896 DMA-out=589824 MAC0=527360 MAC1=527360 VEC0=262656 VEC1=262656 | energy 0x41dd3e6666666663 | trace 0xdfc809a285165fc8
BERT-Small | FLAT | cycles 824832 | dram 1572864/524288 | overlap 6944 | DMA-in=196608 DMA-out=65536 MAC0=527360 MAC1=527360 VEC0=262656 VEC1=262656 | energy 0x41d03e6666666666 | trace 0xa6c2b862a0719d16
BERT-Small | TileFlow | cycles 570032 | dram 1572864/524288 | overlap 335104 | DMA-in=196608 DMA-out=65536 MAC0=527360 MAC1=527360 VEC0=262656 VEC1=262656 | energy 0x41d03e6666666666 | trace 0x9532356e44a2d8b3
BERT-Small | FuseMax | cycles 574392 | dram 1572864/524288 | overlap 312152 | DMA-in=196608 DMA-out=65536 MAC0=536576 MAC1=536576 VEC0=276992 VEC1=276992 | energy 0x41d1fd999999999e | trace 0x0f8a8dd6867b0b15
BERT-Small | MAS-Attention | cycles 562176 | dram 1572864/524288 | overlap 466176 | DMA-in=196608 DMA-out=65536 MAC0=527360 MAC1=527360 VEC0=262656 VEC1=262656 | energy 0x41d03e6666666666 | trace 0x44c8f4695c390dd6
Llama3-8B & T5-3B (T5-XL) | Layer-Wise | cycles 6973952 | dram 46137344/37748736 | overlap 0 | DMA-in=5767168 DMA-out=4718592 MAC0=4206592 MAC1=4206592 VEC0=1050624 VEC1=1050624 | energy 0x420bb19999999992 | trace 0x93c8ac01e17cc528
Llama3-8B & T5-3B (T5-XL) | Soft-Pipe | cycles 4868496 | dram 29360128/20971520 | overlap 1070928 | DMA-in=3670016 DMA-out=2621440 MAC0=4206592 MAC1=4206592 VEC0=1050624 VEC1=1050624 | energy 0x420531999999999c | trace 0xd85a847724bdfcdc
Llama3-8B & T5-3B (T5-XL) | FLAT | cycles 5326848 | dram 12582912/4194304 | overlap 2052320 | DMA-in=1572864 DMA-out=524288 MAC0=4206592 MAC1=4206592 VEC0=1050624 VEC1=1050624 | energy 0x41fd63333333332e | trace 0x0e35bd45e716c080
Llama3-8B & T5-3B (T5-XL) | TileFlow | cycles 4425136 | dram 12582912/4194304 | overlap 1476544 | DMA-in=1572864 DMA-out=524288 MAC0=4206592 MAC1=4206592 VEC0=1050624 VEC1=1050624 | energy 0x41fd63333333332e | trace 0x10862b7214abcd5f
Llama3-8B & T5-3B (T5-XL) | FuseMax | cycles 4319168 | dram 12582912/4194304 | overlap 1427664 | DMA-in=1572864 DMA-out=524288 MAC0=4243456 MAC1=4243456 VEC0=1114112 VEC1=1114112 | energy 0x42002a6666666676 | trace 0xff6335eeb8d4740c
Llama3-8B & T5-3B (T5-XL) | MAS-Attention | cycles 4276224 | dram 12582912/4194304 | overlap 1851264 | DMA-in=1572864 DMA-out=524288 MAC0=4206592 MAC1=4206592 VEC0=1050624 VEC1=1050624 | energy 0x41fd63333333332e | trace 0x0c7bc042697ce07d
T5-Mini & T5-Small | Layer-Wise | cycles 1635552 | dram 9175040/8650752 | overlap 0 | DMA-in=1146880 DMA-out=1081344 MAC0=265216 MAC1=265216 VEC0=262656 VEC1=262656 | energy 0x41e1d5fffffffffe | trace 0x00d1e6cfcc48fc63
T5-Mini & T5-Small | Soft-Pipe | cycles 1102960 | dram 4980736/4456448 | overlap 136656 | DMA-in=622592 DMA-out=557056 MAC0=265216 MAC1=265216 VEC0=262656 VEC1=262656 | energy 0x41d6abfffffffffd | trace 0x8fc8be6e99c29824
T5-Mini & T5-Small | FLAT | cycles 545280 | dram 786432/262144 | overlap 261024 | DMA-in=98304 DMA-out=32768 MAC0=265216 MAC1=265216 VEC0=262656 VEC1=262656 | energy 0x41c357fffffffffb | trace 0x7a7d43f735339940
T5-Mini & T5-Small | TileFlow | cycles 313600 | dram 786432/262144 | overlap 290512 | DMA-in=98304 DMA-out=32768 MAC0=265216 MAC1=265216 VEC0=262656 VEC1=262656 | energy 0x41c357fffffffffb | trace 0x78b8019f65947e4e
T5-Mini & T5-Small | FuseMax | cycles 296136 | dram 786432/262144 | overlap 283704 | DMA-in=98304 DMA-out=32768 MAC0=274432 MAC1=274432 VEC0=276224 VEC1=276224 | energy 0x41c5a40000000018 | trace 0x57713de377a1af3c
T5-Mini & T5-Small | MAS-Attention | cycles 290752 | dram 786432/262144 | overlap 269200 | DMA-in=98304 DMA-out=32768 MAC0=265216 MAC1=265216 VEC0=262656 VEC1=262656 | energy 0x41c357fffffffffb | trace 0xc056bd89ce8c4af4
ViT-B/14 | Layer-Wise | cycles 401644 | dram 2747136/2145024 | overlap 0 | DMA-in=343392 DMA-out=268128 MAC0=128352 MAC1=128352 VEC0=58008 VEC1=58008 | energy 0x41c51396cccccccd | trace 0x46328094634c92b9
ViT-B/14 | Soft-Pipe | cycles 283228 | dram 1825152/1223040 | overlap 76176 | DMA-in=228144 DMA-out=152880 MAC0=128352 MAC1=128352 VEC0=58008 VEC1=58008 | energy 0x41beb8f59999999c | trace 0x65aacc64ed51deb2
ViT-B/14 | FLAT | cycles 199992 | dram 903168/301056 | overlap 31908 | DMA-in=112896 DMA-out=37632 MAC0=128352 MAC1=128352 VEC0=58008 VEC1=58008 | energy 0x41b34abd9999999b | trace 0xd56ee214940eac34
ViT-B/14 | TileFlow | cycles 166704 | dram 903168/301056 | overlap 78352 | DMA-in=112896 DMA-out=37632 MAC0=128352 MAC1=128352 VEC0=58008 VEC1=58008 | energy 0x41b34abd9999999b | trace 0x40fb33d9358cae01
ViT-B/14 | FuseMax | cycles 153624 | dram 903168/301056 | overlap 101177 | DMA-in=112896 DMA-out=37632 MAC0=139104 MAC1=139104 VEC0=63714 VEC1=63714 | energy 0x41b516cdfffffffc | trace 0x6464884437353b3d
ViT-B/14 | MAS-Attention | cycles 142176 | dram 903168/301056 | overlap 90596 | DMA-in=112896 DMA-out=37632 MAC0=128352 MAC1=128352 VEC0=58008 VEC1=58008 | energy 0x41b34abd9999999b | trace 0x90c546d232250a16
ViT-L/14 | Layer-Wise | cycles 529436 | dram 3662848/2860032 | overlap 0 | DMA-in=457856 DMA-out=357504 MAC0=171136 MAC1=171136 VEC0=77344 VEC1=77344 | energy 0x41cc1a1e66666667 | trace 0xc25497461acc1caf
ViT-L/14 | Soft-Pipe | cycles 372604 | dram 2433536/1630720 | overlap 101264 | DMA-in=304192 DMA-out=203840 MAC0=171136 MAC1=171136 VEC0=77344 VEC1=77344 | energy 0x41c47b4e66666668 | trace 0x4e2c8d3e6a7ffe45
ViT-L/14 | FLAT | cycles 262112 | dram 1204224/401408 | overlap 44100 | DMA-in=150528 DMA-out=50176 MAC0=171136 MAC1=171136 VEC0=77344 VEC1=77344 | energy 0x41b9b8fccccccccf | trace 0xdcb273dec0ff5245
ViT-L/14 | TileFlow | cycles 219152 | dram 1204224/401408 | overlap 104736 | DMA-in=150528 DMA-out=50176 MAC0=171136 MAC1=171136 VEC0=77344 VEC1=77344 | energy 0x41b9b8fccccccccf | trace 0x2366af6a8da6ef39
ViT-L/14 | FuseMax | cycles 199992 | dram 1204224/401408 | overlap 134667 | DMA-in=150528 DMA-out=50176 MAC0=185472 MAC1=185472 VEC0=84952 VEC1=84952 | energy 0x41bc1e67fffffffb | trace 0xa29ebd590876e015
ViT-L/14 | MAS-Attention | cycles 184960 | dram 1204224/401408 | overlap 120356 | DMA-in=150528 DMA-out=50176 MAC0=171136 MAC1=171136 VEC0=77344 VEC1=77344 | energy 0x41b9b8fccccccccf | trace 0xe730e96437efef29
ViT-H/14 | Layer-Wise | cycles 547804 | dram 3963904/2960384 | overlap 0 | DMA-in=495488 DMA-out=370048 MAC0=213152 MAC1=213152 VEC0=77344 VEC1=77344 | energy 0x41cedcf199999998 | trace 0xcb972fe4dfeda4c1
ViT-H/14 | Soft-Pipe | cycles 390972 | dram 2734592/1731072 | overlap 113772 | DMA-in=341824 DMA-out=216384 MAC0=213152 MAC1=213152 VEC0=77344 VEC1=77344 | energy 0x41c73e2199999999 | trace 0x6206cd53761b0bea
ViT-H/14 | FLAT | cycles 307536 | dram 1505280/501760 | overlap 43548 | DMA-in=188160 DMA-out=62720 MAC0=213152 MAC1=213152 VEC0=77344 VEC1=77344 | energy 0x41bf3ea333333331 | trace 0x765c13751f394217
ViT-H/14 | TileFlow | cycles 273580 | dram 1505280/501760 | overlap 108448 | DMA-in=188160 DMA-out=62720 MAC0=213152 MAC1=213152 VEC0=77344 VEC1=77344 | energy 0x41bf3ea333333331 | trace 0x56f56aeb272e4504
ViT-H/14 | FuseMax | cycles 247154 | dram 1505280/501760 | overlap 140877 | DMA-in=188160 DMA-out=62720 MAC0=229152 MAC1=229152 VEC0=85248 VEC1=85248 | energy 0x41c10a1266666668 | trace 0xaf2222ab791a7368
ViT-H/14 | MAS-Attention | cycles 230444 | dram 1505280/501760 | overlap 126720 | DMA-in=188160 DMA-out=62720 MAC0=213152 MAC1=213152 VEC0=77344 VEC1=77344 | energy 0x41bf3ea333333331 | trace 0x87ea044b4713551d
ViT-B/16 | Layer-Wise | cycles 661856 | dram 4325376/3538944 | overlap 0 | DMA-in=540672 DMA-out=442368 MAC0=198912 MAC1=198912 VEC0=98688 VEC1=98688 | energy 0x41d1186666666666 | trace 0x59c53f2bdde40f48
ViT-B/16 | Soft-Pipe | cycles 461104 | dram 2752512/1966080 | overlap 103440 | DMA-in=344064 DMA-out=245760 MAC0=198912 MAC1=198912 VEC0=98688 VEC1=98688 | energy 0x41c870ccccccccce | trace 0x221a9902c2d83596
ViT-B/16 | FLAT | cycles 316032 | dram 1179648/393216 | overlap 5152 | DMA-in=147456 DMA-out=49152 MAC0=198912 MAC1=198912 VEC0=98688 VEC1=98688 | energy 0x41bd61999999999b | trace 0x725c591165a3f4ef
ViT-B/16 | TileFlow | cycles 241936 | dram 1179648/393216 | overlap 144960 | DMA-in=147456 DMA-out=49152 MAC0=198912 MAC1=198912 VEC0=98688 VEC1=98688 | energy 0x41bd61999999999b | trace 0xbcb2a4401cf3b1d7
ViT-B/16 | FuseMax | cycles 226304 | dram 1179648/393216 | overlap 128584 | DMA-in=147456 DMA-out=49152 MAC0=205824 MAC1=205824 VEC0=106368 VEC1=106368 | energy 0x41c025ffffffffff | trace 0x3226d8701e2c7124
ViT-B/16 | MAS-Attention | cycles 217344 | dram 1179648/393216 | overlap 152384 | DMA-in=147456 DMA-out=49152 MAC0=198912 MAC1=198912 VEC0=98688 VEC1=98688 | energy 0x41bd61999999999b | trace 0xbf223dedfd1a3b19
ViT-L/16 | Layer-Wise | cycles 874848 | dram 5767168/4718592 | overlap 0 | DMA-in=720896 DMA-out=589824 MAC0=265216 MAC1=265216 VEC0=131584 VEC1=131584 | energy 0x41d6cb3333333331 | trace 0x0d5afdcf59dddaa3
ViT-L/16 | Soft-Pipe | cycles 608560 | dram 3670016/2621440 | overlap 136592 | DMA-in=458752 DMA-out=327680 MAC0=265216 MAC1=265216 VEC0=131584 VEC1=131584 | energy 0x41d04b3333333332 | trace 0x4a5d4f6d018747e8
ViT-L/16 | FLAT | cycles 415232 | dram 1572864/524288 | overlap 6944 | DMA-in=196608 DMA-out=65536 MAC0=265216 MAC1=265216 VEC0=131584 VEC1=131584 | energy 0x41c3966666666666 | trace 0xc989cd8c71bd5bc5
ViT-L/16 | TileFlow | cycles 318096 | dram 1572864/524288 | overlap 194336 | DMA-in=196608 DMA-out=65536 MAC0=265216 MAC1=265216 VEC0=131584 VEC1=131584 | energy 0x41c3966666666666 | trace 0x3948a87cdb135cd7
ViT-L/16 | FuseMax | cycles 293816 | dram 1572864/524288 | overlap 171736 | DMA-in=196608 DMA-out=65536 MAC0=274432 MAC1=274432 VEC0=141824 VEC1=141824 | energy 0x41c5880000000007 | trace 0xe41ed07027dfea7d
ViT-L/16 | MAS-Attention | cycles 283648 | dram 1572864/524288 | overlap 201856 | DMA-in=196608 DMA-out=65536 MAC0=265216 MAC1=265216 VEC0=131584 VEC1=131584 | energy 0x41c3966666666666 | trace 0xa1e4df972cd7a7c8
ViT-H/16 | Layer-Wise | cycles 899888 | dram 6160384/4849664 | overlap 0 | DMA-in=770048 DMA-out=606208 MAC0=330752 MAC1=330752 VEC0=131584 VEC1=131584 | energy 0x41d8dacccccccccc | trace 0x12d5228c5207fc67
ViT-H/16 | Soft-Pipe | cycles 633600 | dram 4063232/2752512 | overlap 138576 | DMA-in=507904 DMA-out=344064 MAC0=330752 MAC1=330752 VEC0=131584 VEC1=131584 | energy 0x41d25acccccccccc | trace 0x8df35f5377a1ee41
ViT-H/16 | FLAT | cycles 485376 | dram 1966080/655360 | overlap 56544 | DMA-in=245760 DMA-out=81920 MAC0=330752 MAC1=330752 VEC0=131584 VEC1=131584 | energy 0x41c7b5999999999c | trace 0x2a2a6428178b726c
ViT-H/16 | TileFlow | cycles 397200 | dram 1966080/655360 | overlap 209440 | DMA-in=245760 DMA-out=81920 MAC0=330752 MAC1=330752 VEC0=131584 VEC1=131584 | energy 0x41c7b5999999999c | trace 0x4f6e70ff466d3ddb
ViT-H/16 | FuseMax | cycles 364218 | dram 1966080/655360 | overlap 199712 | DMA-in=245760 DMA-out=81920 MAC0=339968 MAC1=339968 VEC0=142208 VEC1=142208 | energy 0x41ca006666666657 | trace 0xd4e147b08bb597c6
ViT-H/16 | MAS-Attention | cycles 353792 | dram 1966080/655360 | overlap 203648 | DMA-in=245760 DMA-out=81920 MAC0=330752 MAC1=330752 VEC0=131584 VEC1=131584 | energy 0x41c7b5999999999c | trace 0x133aa3886ec2e512
XLM | Layer-Wise | cycles 1857536 | dram 11534336/9437184 | overlap 0 | DMA-in=1441792 DMA-out=1179648 MAC0=1051648 MAC1=1051648 VEC0=262656 VEC1=262656 | energy 0x41ebb1999999999c | trace 0x40ae509cf8afa321
XLM | Soft-Pipe | cycles 1324944 | dram 7340032/5242880 | overlap 273744 | DMA-in=917504 DMA-out=655360 MAC0=1051648 MAC1=1051648 VEC0=262656 VEC1=262656 | energy 0x41e5319999999999 | trace 0x30a9f4ce1b482d2a
XLM | FLAT | cycles 1383936 | dram 3145728/1048576 | overlap 500960 | DMA-in=393216 DMA-out=131072 MAC0=1051648 MAC1=1051648 VEC0=262656 VEC1=262656 | energy 0x41dd633333333334 | trace 0xe9a6611657ae6f61
XLM | TileFlow | cycles 1137328 | dram 3145728/1048576 | overlap 365776 | DMA-in=393216 DMA-out=131072 MAC0=1051648 MAC1=1051648 VEC0=262656 VEC1=262656 | energy 0x41dd633333333334 | trace 0x352c473e2497d05b
XLM | FuseMax | cycles 1136576 | dram 3145728/1048576 | overlap 364752 | DMA-in=393216 DMA-out=131072 MAC0=1060864 MAC1=1060864 VEC0=278528 VEC1=278528 | energy 0x41e02a6666666662 | trace 0x29b3aaded4fa39d6
XLM | MAS-Attention | cycles 1121280 | dram 3145728/1048576 | overlap 468864 | DMA-in=393216 DMA-out=131072 MAC0=1051648 MAC1=1051648 VEC0=262656 VEC1=262656 | energy 0x41dd633333333334 | trace 0x580fd0e3dc09df61
";

#[test]
fn table1_simulations_match_the_recorded_values() {
    let current = measure();
    let expected: Vec<&str> = EXPECTED.lines().collect();
    if current != expected {
        eprintln!("current values:\n{}", current.join("\n"));
    }
    assert_eq!(current.len(), expected.len());
    for (got, want) in current.iter().zip(expected) {
        assert_eq!(got, want);
    }
}
