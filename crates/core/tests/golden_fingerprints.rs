//! Pins the content fingerprints of every suite ILP: each routine's two
//! cover fingerprints (the `base0`/`base1` lines: worst, then best) and
//! each job's problem fingerprint (which is also the job's cache key),
//! under the bundled annotations and under `--infer` (merge).
//!
//! The solve pool's replay tier and its store files key on these values, so a change to row normalization or to the hash that
//! moved any of them would silently re-key every cache. Regenerate the
//! table only together with a deliberate key change: run with
//! `GOLDEN_PRINT=1 cargo test -p ipet-core --test golden_fingerprints --
//! --nocapture` and paste the printed lines.

use ipet_core::{parse_annotations, AnalysisBudget, Analyzer};
use ipet_hw::Machine;
use ipet_lp::{fingerprint, Sense};

/// One line per value: `<routine> <mode> <what> <fingerprint>`.
fn listing(infer: bool) -> String {
    let mut out = String::new();
    let budget = AnalysisBudget::default();
    let mode = if infer { "infer" } else { "plain" };
    for bench in ipet_suite::all() {
        let program = bench.program().expect("compiles");
        let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
        let mut anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
        if infer {
            let module = ipet_lang::parse_module(bench.source).ok();
            anns = ipet_infer::infer_and_merge(
                module.as_ref(),
                &analyzer,
                &anns,
                ipet_infer::InferMode::Merge,
            )
            .expect("inference")
            .annotations;
        }
        let plan = analyzer.plan(&anns, &budget).expect("plan");
        for (b, sense) in [Sense::Maximize, Sense::Minimize].into_iter().enumerate() {
            let key = fingerprint(plan.cover(sense));
            out += &format!("{} {mode} base{b} {key}\n", bench.name);
        }
        for (j, job) in plan.jobs().iter().enumerate() {
            assert_eq!(job.key, fingerprint(&job.problem), "{} job{j}", bench.name);
            out += &format!("{} {mode} job{j} {}\n", bench.name, job.key);
        }
    }
    out
}

#[test]
fn suite_fingerprints_match_the_pinned_keys() {
    let got = listing(false) + &listing(true);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        print!("{got}");
    }
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "a suite fingerprint moved");
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "the suite's job count changed");
}

const GOLDEN: &str = "\
check_data plain base0 c1726f00aa3857657582ab8eea524922
check_data plain base1 9de3d7b901c2c206f34f4faf2b1fadc9
check_data plain job0 0e0920d56b17f633be12660188408624
check_data plain job1 8aff44fbdc938562f0b0a176179b9a4e
check_data plain job2 bdb3e50629ce313f1a017117fbebdda8
check_data plain job3 a86dfa72b766a57611648c90f830d610
fft plain base0 8bd75fc75110ec4ee2b0b22db61537bc
fft plain base1 251647eab335d250228ec761dcda988e
fft plain job0 8bd75fc75110ec4ee2b0b22db61537bc
fft plain job1 251647eab335d250228ec761dcda988e
piksrt plain base0 67620fa15a55d6cccaaaa6f451c1c10d
piksrt plain base1 fc834d3f5930dd6bbe216ef9d75e06c3
piksrt plain job0 67620fa15a55d6cccaaaa6f451c1c10d
piksrt plain job1 fc834d3f5930dd6bbe216ef9d75e06c3
des plain base0 1ba91e53c22e54d73af47ce743abd406
des plain base1 f13919f5e27e6d68bc21e084d1e61bff
des plain job0 2be613503bb5e9ba14c1f589d8db2c45
des plain job1 7a81d615d976681c54b0983cf1f38735
des plain job2 7cfd8c435e66e70f3d3af9d9af7c1b64
des plain job3 31456e2a6ed55037a98642b774c1fdb6
line plain base0 6c08d667b09891e19e5713b5b1291616
line plain base1 32150811d00b1247f3fba20d320ad18b
line plain job0 94d411b4c20f3e5cc75efb22824ddea2
line plain job1 202bad8c071aa3f0d7cabd83e13c896f
line plain job2 6a8fff264738108abc9ad6e86cc09cf2
line plain job3 56d02c7cf36da276860495af58d9324e
circle plain base0 8796c3b22de57bc7535116fe8f131b84
circle plain base1 4d82108cebdf4e7b65b45d1ecbb67c45
circle plain job0 8796c3b22de57bc7535116fe8f131b84
circle plain job1 4d82108cebdf4e7b65b45d1ecbb67c45
jpeg_fdct_islow plain base0 940fc0875f2dcd03775f2fa4b7e071fc
jpeg_fdct_islow plain base1 3a255172869a2c1a635941f0c8b9a8da
jpeg_fdct_islow plain job0 940fc0875f2dcd03775f2fa4b7e071fc
jpeg_fdct_islow plain job1 3a255172869a2c1a635941f0c8b9a8da
jpeg_idct_islow plain base0 e9f25d0a50370ba58d536860e0f8a8a4
jpeg_idct_islow plain base1 f4ea6016e543d934e55725b12fe19998
jpeg_idct_islow plain job0 e9f25d0a50370ba58d536860e0f8a8a4
jpeg_idct_islow plain job1 f4ea6016e543d934e55725b12fe19998
recon plain base0 531f8219e625174389c2893ddedbdbb0
recon plain base1 7fc372278ecb8c95e857454d31da880e
recon plain job0 531f8219e625174389c2893ddedbdbb0
recon plain job1 7fc372278ecb8c95e857454d31da880e
fullsearch plain base0 8102c9db8f77361d4544ec48a0008eb0
fullsearch plain base1 ab4a00f40e008070c2f333e75a930ba6
fullsearch plain job0 8102c9db8f77361d4544ec48a0008eb0
fullsearch plain job1 ab4a00f40e008070c2f333e75a930ba6
whetstone plain base0 cfcac319e6664cfec8e3dca898a17af7
whetstone plain base1 8544a99b36d9cc1e47031582d6863f01
whetstone plain job0 cfcac319e6664cfec8e3dca898a17af7
whetstone plain job1 8544a99b36d9cc1e47031582d6863f01
dhry plain base0 3752d5e913c17d9ef9f7d0b3554ca01f
dhry plain base1 637c2cf6b74def9ddcbad31a8f0bc891
dhry plain job0 76bff99cf630996403d8d199f104c6d2
dhry plain job1 c18a6d5c399effe1436d088bad72af73
dhry plain job2 51a31b278d1a41ab3fa51deb39d5f247
dhry plain job3 d3d2b9a35445329ff91a161ac41347ba
dhry plain job4 51a31b278d1a41ab3fa51deb39d5f247
dhry plain job5 d3d2b9a35445329ff91a161ac41347ba
matgen plain base0 423ace0c93e6dc7ea8b00dc16d8cea91
matgen plain base1 8cd62bc03431d0d985652ac5b2c3c8a1
matgen plain job0 423ace0c93e6dc7ea8b00dc16d8cea91
matgen plain job1 8cd62bc03431d0d985652ac5b2c3c8a1
check_data infer base0 2de117502a232a06b09e208c12934e9c
check_data infer base1 8d0260cf6e1a894cc697b42f8daf87a3
check_data infer job0 bed51f282ca3177ab2c23f13e2525f0d
check_data infer job1 9620f4ac470bc88d3b6e3c5d58630a48
check_data infer job2 b9e0f64806b9dde1e0eaae5bdd9ff5e5
check_data infer job3 59e5e54b1179960142d18b32a7e9aa14
fft infer base0 397e1cc77cd6a992d7927935310e296b
fft infer base1 cc4314bc6a182ca1e19a0d23837c415a
fft infer job0 397e1cc77cd6a992d7927935310e296b
fft infer job1 cc4314bc6a182ca1e19a0d23837c415a
piksrt infer base0 61fa81bab5f39e7e12b55bb928768bef
piksrt infer base1 ecab67e11b2b57dcc8f7e9a04204c403
piksrt infer job0 61fa81bab5f39e7e12b55bb928768bef
piksrt infer job1 ecab67e11b2b57dcc8f7e9a04204c403
des infer base0 1ba91e53c22e54d73af47ce743abd406
des infer base1 f13919f5e27e6d68bc21e084d1e61bff
des infer job0 2be613503bb5e9ba14c1f589d8db2c45
des infer job1 7a81d615d976681c54b0983cf1f38735
des infer job2 7cfd8c435e66e70f3d3af9d9af7c1b64
des infer job3 31456e2a6ed55037a98642b774c1fdb6
line infer base0 6c08d667b09891e19e5713b5b1291616
line infer base1 32150811d00b1247f3fba20d320ad18b
line infer job0 94d411b4c20f3e5cc75efb22824ddea2
line infer job1 202bad8c071aa3f0d7cabd83e13c896f
line infer job2 6a8fff264738108abc9ad6e86cc09cf2
line infer job3 56d02c7cf36da276860495af58d9324e
circle infer base0 044e2df72d32409faffee95b113f61d2
circle infer base1 ad6c2d7216062d7ff00a4998046128bc
circle infer job0 044e2df72d32409faffee95b113f61d2
circle infer job1 ad6c2d7216062d7ff00a4998046128bc
jpeg_fdct_islow infer base0 940fc0875f2dcd03775f2fa4b7e071fc
jpeg_fdct_islow infer base1 3a255172869a2c1a635941f0c8b9a8da
jpeg_fdct_islow infer job0 940fc0875f2dcd03775f2fa4b7e071fc
jpeg_fdct_islow infer job1 3a255172869a2c1a635941f0c8b9a8da
jpeg_idct_islow infer base0 e9f25d0a50370ba58d536860e0f8a8a4
jpeg_idct_islow infer base1 f4ea6016e543d934e55725b12fe19998
jpeg_idct_islow infer job0 e9f25d0a50370ba58d536860e0f8a8a4
jpeg_idct_islow infer job1 f4ea6016e543d934e55725b12fe19998
recon infer base0 531f8219e625174389c2893ddedbdbb0
recon infer base1 7fc372278ecb8c95e857454d31da880e
recon infer job0 531f8219e625174389c2893ddedbdbb0
recon infer job1 7fc372278ecb8c95e857454d31da880e
fullsearch infer base0 8102c9db8f77361d4544ec48a0008eb0
fullsearch infer base1 ab4a00f40e008070c2f333e75a930ba6
fullsearch infer job0 8102c9db8f77361d4544ec48a0008eb0
fullsearch infer job1 ab4a00f40e008070c2f333e75a930ba6
whetstone infer base0 cfcac319e6664cfec8e3dca898a17af7
whetstone infer base1 8544a99b36d9cc1e47031582d6863f01
whetstone infer job0 cfcac319e6664cfec8e3dca898a17af7
whetstone infer job1 8544a99b36d9cc1e47031582d6863f01
dhry infer base0 2f429d99eab27d5a9b073e26660e3359
dhry infer base1 391c373715f0e694ad049c47dc880d2d
dhry infer job0 9e180ac31a761d694f87b1839833c54f
dhry infer job1 a29b54b355cd48d7fe0da2611c5ac211
dhry infer job2 dbb56c718877022a7b2c7f5f03007f95
dhry infer job3 e64fbe9e46a239515e2ece71d7658902
dhry infer job4 dbb56c718877022a7b2c7f5f03007f95
dhry infer job5 e64fbe9e46a239515e2ece71d7658902
matgen infer base0 423ace0c93e6dc7ea8b00dc16d8cea91
matgen infer base1 8cd62bc03431d0d985652ac5b2c3c8a1
matgen infer job0 423ace0c93e6dc7ea8b00dc16d8cea91
matgen infer job1 8cd62bc03431d0d985652ac5b2c3c8a1
";
