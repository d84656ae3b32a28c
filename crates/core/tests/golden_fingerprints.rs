//! Pins the content fingerprints of every suite ILP: each routine's two
//! base fingerprints, and each job's composed-problem fingerprint and delta
//! fingerprint, under the bundled annotations and under `--infer` (merge).
//!
//! The solve cache, the pool's base table and the persistent store all key
//! on these values, so a change to row normalization or to the refinement
//! that moved any of them would silently re-key every cache. Regenerate the
//! table only together with a deliberate key change: run with
//! `GOLDEN_PRINT=1 cargo test -p ipet-core --test golden_fingerprints --
//! --nocapture` and paste the printed lines.

use ipet_core::{parse_annotations, AnalysisBudget, Analyzer};
use ipet_hw::Machine;
use ipet_lp::fingerprint;

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
        for (b, base) in plan.bases().iter().enumerate() {
            out += &format!("{} {mode} base{b} {}\n", bench.name, base.fingerprint());
        }
        for (j, job) in plan.jobs().iter().enumerate() {
            let delta = plan.bases()[job.base].delta_fingerprint(&job.delta);
            out += &format!("{} {mode} job{j} {}\n", bench.name, fingerprint(&job.problem));
            out += &format!("{} {mode} delta{j} {delta}\n", bench.name);
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
check_data plain base0 e045385447e19fac8022bf4a2b2ce9d0
check_data plain base1 4b41b67a2a38a638fd4ef3cf175f9d5f
check_data plain job0 6b3eb5bd206f7c71b87cb2c48e56c700
check_data plain delta0 33ed12d92cab58e4c6060e20942f1c97
check_data plain job1 1e3c6bc71458ccf36af7c686f5d6f2bd
check_data plain delta1 33ed12d92cab58e4c6060e20942f1c97
check_data plain job2 bd6ca0789555426e01df30459afd11f0
check_data plain delta2 80f69e17f20b017629afb788461a885a
check_data plain job3 9529eec64323e2e7f9334e8e71e0e531
check_data plain delta3 80f69e17f20b017629afb788461a885a
fft plain base0 02cded6daf86b497858a15277bfff379
fft plain base1 efa8458357afbb83cf10320cc335283d
fft plain job0 02cded6daf86b497858a15277bfff379
fft plain delta0 00000000000000000000000000000000
fft plain job1 efa8458357afbb83cf10320cc335283d
fft plain delta1 00000000000000000000000000000000
piksrt plain base0 82f07c083055613e716e4d111b19a3cf
piksrt plain base1 1175128c2465e77df78efccad04a2f6d
piksrt plain job0 82f07c083055613e716e4d111b19a3cf
piksrt plain delta0 00000000000000000000000000000000
piksrt plain job1 1175128c2465e77df78efccad04a2f6d
piksrt plain delta1 00000000000000000000000000000000
des plain base0 b1d436ba9d9071cf8e7c3889a1cab171
des plain base1 f51c329e258493cd80ec310f52db73a9
des plain job0 7b612b8fce04968612d2246352839fb8
des plain delta0 48a83b156aa7da61e1da0d7a06a46bc2
des plain job1 ed806be3d35a159229f10eec56cc1f64
des plain delta1 48a83b156aa7da61e1da0d7a06a46bc2
des plain job2 ce2ab5f38c5d58880da32a2e33bf8eac
des plain delta2 8fb4ce05f0353adf7cc09b6571fef8d1
des plain job3 772d2b4cffa45092da1b25e2ded2c408
des plain delta3 8fb4ce05f0353adf7cc09b6571fef8d1
line plain base0 d6f37955584ce4b6427ad8c5129f6708
line plain base1 bac02ce19043a190cfcd76ea369e5adc
line plain job0 6c47430f3e3c8aa5261295dd2ff3f419
line plain delta0 9f4fd30bc93c24f7b05d195ead8fff3e
line plain job1 92f6d86fb9661438f557352eae816cae
line plain delta1 9f4fd30bc93c24f7b05d195ead8fff3e
line plain job2 ecc384f75ae92de8cecfbbcc76de46e1
line plain delta2 9f8ebeb202f9b35478e5b9dd5dafc12a
line plain job3 b0ee05adedde5d8e5e5e4707bb092e7d
line plain delta3 9f8ebeb202f9b35478e5b9dd5dafc12a
circle plain base0 c20ddc392b2d87590c1f0abababeb33d
circle plain base1 938e2921d0a671fc68e059107d7033bd
circle plain job0 c20ddc392b2d87590c1f0abababeb33d
circle plain delta0 00000000000000000000000000000000
circle plain job1 938e2921d0a671fc68e059107d7033bd
circle plain delta1 00000000000000000000000000000000
jpeg_fdct_islow plain base0 2e09070356d259c4378cc304d1565ce8
jpeg_fdct_islow plain base1 5e4b0cd7ac1cf832fc0b93271b82a164
jpeg_fdct_islow plain job0 2e09070356d259c4378cc304d1565ce8
jpeg_fdct_islow plain delta0 00000000000000000000000000000000
jpeg_fdct_islow plain job1 5e4b0cd7ac1cf832fc0b93271b82a164
jpeg_fdct_islow plain delta1 00000000000000000000000000000000
jpeg_idct_islow plain base0 53a27b4ab44697b19bfbafd6a70ecae1
jpeg_idct_islow plain base1 ee0c71d130560b3b7ddadfbbc68f3d02
jpeg_idct_islow plain job0 53a27b4ab44697b19bfbafd6a70ecae1
jpeg_idct_islow plain delta0 00000000000000000000000000000000
jpeg_idct_islow plain job1 ee0c71d130560b3b7ddadfbbc68f3d02
jpeg_idct_islow plain delta1 00000000000000000000000000000000
recon plain base0 bd5e0b3c08e4680952d61ed4db8b406b
recon plain base1 667390763e760847d85d6b0481ac9697
recon plain job0 bd5e0b3c08e4680952d61ed4db8b406b
recon plain delta0 00000000000000000000000000000000
recon plain job1 667390763e760847d85d6b0481ac9697
recon plain delta1 00000000000000000000000000000000
fullsearch plain base0 14c6f75965cf367400e240137b8c8055
fullsearch plain base1 3fc23d8e5ddd088a603c36559d56ca0d
fullsearch plain job0 14c6f75965cf367400e240137b8c8055
fullsearch plain delta0 00000000000000000000000000000000
fullsearch plain job1 3fc23d8e5ddd088a603c36559d56ca0d
fullsearch plain delta1 00000000000000000000000000000000
whetstone plain base0 a0c4026b70763ac4f0d61cab2191cf68
whetstone plain base1 079fcf71c5aace65a0a01f81b35ad77b
whetstone plain job0 a0c4026b70763ac4f0d61cab2191cf68
whetstone plain delta0 00000000000000000000000000000000
whetstone plain job1 079fcf71c5aace65a0a01f81b35ad77b
whetstone plain delta1 00000000000000000000000000000000
dhry plain base0 634f412923f488fe4c6b0051e754ae4e
dhry plain base1 c693ef06a1e53e22c76045c0b9124e16
dhry plain job0 355b5a29a1f15a4b8a01eb40182af927
dhry plain delta0 9712d183e3dbce35780cd8905876f1cd
dhry plain job1 75bea7606ea324df5c5f27870670da49
dhry plain delta1 9712d183e3dbce35780cd8905876f1cd
dhry plain job2 a25eae65e3ce2953af1670e6d86d5eef
dhry plain delta2 55800fcb50f1ae5f57cd07839ec905c3
dhry plain job3 506bbada48cb27fce2fcafd2fbea343b
dhry plain delta3 55800fcb50f1ae5f57cd07839ec905c3
dhry plain job4 a25eae65e3ce2953af1670e6d86d5eef
dhry plain delta4 55800fcb50f1ae5f57cd07839ec905c3
dhry plain job5 506bbada48cb27fce2fcafd2fbea343b
dhry plain delta5 55800fcb50f1ae5f57cd07839ec905c3
matgen plain base0 03d9fdc7b3b3f19bbd52c50c28af686e
matgen plain base1 8af99161e5d217d4a062353fce33c1af
matgen plain job0 03d9fdc7b3b3f19bbd52c50c28af686e
matgen plain delta0 00000000000000000000000000000000
matgen plain job1 8af99161e5d217d4a062353fce33c1af
matgen plain delta1 00000000000000000000000000000000
check_data infer base0 e045385447e19fac8022bf4a2b2ce9d0
check_data infer base1 4b41b67a2a38a638fd4ef3cf175f9d5f
check_data infer job0 6b3eb5bd206f7c71b87cb2c48e56c700
check_data infer delta0 33ed12d92cab58e4c6060e20942f1c97
check_data infer job1 1e3c6bc71458ccf36af7c686f5d6f2bd
check_data infer delta1 33ed12d92cab58e4c6060e20942f1c97
check_data infer job2 bd6ca0789555426e01df30459afd11f0
check_data infer delta2 80f69e17f20b017629afb788461a885a
check_data infer job3 9529eec64323e2e7f9334e8e71e0e531
check_data infer delta3 80f69e17f20b017629afb788461a885a
fft infer base0 02cded6daf86b497858a15277bfff379
fft infer base1 efa8458357afbb83cf10320cc335283d
fft infer job0 02cded6daf86b497858a15277bfff379
fft infer delta0 00000000000000000000000000000000
fft infer job1 efa8458357afbb83cf10320cc335283d
fft infer delta1 00000000000000000000000000000000
piksrt infer base0 82f07c083055613e716e4d111b19a3cf
piksrt infer base1 1175128c2465e77df78efccad04a2f6d
piksrt infer job0 82f07c083055613e716e4d111b19a3cf
piksrt infer delta0 00000000000000000000000000000000
piksrt infer job1 1175128c2465e77df78efccad04a2f6d
piksrt infer delta1 00000000000000000000000000000000
des infer base0 b1d436ba9d9071cf8e7c3889a1cab171
des infer base1 f51c329e258493cd80ec310f52db73a9
des infer job0 7b612b8fce04968612d2246352839fb8
des infer delta0 48a83b156aa7da61e1da0d7a06a46bc2
des infer job1 ed806be3d35a159229f10eec56cc1f64
des infer delta1 48a83b156aa7da61e1da0d7a06a46bc2
des infer job2 ce2ab5f38c5d58880da32a2e33bf8eac
des infer delta2 8fb4ce05f0353adf7cc09b6571fef8d1
des infer job3 772d2b4cffa45092da1b25e2ded2c408
des infer delta3 8fb4ce05f0353adf7cc09b6571fef8d1
line infer base0 d6f37955584ce4b6427ad8c5129f6708
line infer base1 bac02ce19043a190cfcd76ea369e5adc
line infer job0 6c47430f3e3c8aa5261295dd2ff3f419
line infer delta0 9f4fd30bc93c24f7b05d195ead8fff3e
line infer job1 92f6d86fb9661438f557352eae816cae
line infer delta1 9f4fd30bc93c24f7b05d195ead8fff3e
line infer job2 ecc384f75ae92de8cecfbbcc76de46e1
line infer delta2 9f8ebeb202f9b35478e5b9dd5dafc12a
line infer job3 b0ee05adedde5d8e5e5e4707bb092e7d
line infer delta3 9f8ebeb202f9b35478e5b9dd5dafc12a
circle infer base0 c20ddc392b2d87590c1f0abababeb33d
circle infer base1 938e2921d0a671fc68e059107d7033bd
circle infer job0 c20ddc392b2d87590c1f0abababeb33d
circle infer delta0 00000000000000000000000000000000
circle infer job1 938e2921d0a671fc68e059107d7033bd
circle infer delta1 00000000000000000000000000000000
jpeg_fdct_islow infer base0 2e09070356d259c4378cc304d1565ce8
jpeg_fdct_islow infer base1 5e4b0cd7ac1cf832fc0b93271b82a164
jpeg_fdct_islow infer job0 2e09070356d259c4378cc304d1565ce8
jpeg_fdct_islow infer delta0 00000000000000000000000000000000
jpeg_fdct_islow infer job1 5e4b0cd7ac1cf832fc0b93271b82a164
jpeg_fdct_islow infer delta1 00000000000000000000000000000000
jpeg_idct_islow infer base0 53a27b4ab44697b19bfbafd6a70ecae1
jpeg_idct_islow infer base1 ee0c71d130560b3b7ddadfbbc68f3d02
jpeg_idct_islow infer job0 53a27b4ab44697b19bfbafd6a70ecae1
jpeg_idct_islow infer delta0 00000000000000000000000000000000
jpeg_idct_islow infer job1 ee0c71d130560b3b7ddadfbbc68f3d02
jpeg_idct_islow infer delta1 00000000000000000000000000000000
recon infer base0 bd5e0b3c08e4680952d61ed4db8b406b
recon infer base1 667390763e760847d85d6b0481ac9697
recon infer job0 bd5e0b3c08e4680952d61ed4db8b406b
recon infer delta0 00000000000000000000000000000000
recon infer job1 667390763e760847d85d6b0481ac9697
recon infer delta1 00000000000000000000000000000000
fullsearch infer base0 14c6f75965cf367400e240137b8c8055
fullsearch infer base1 3fc23d8e5ddd088a603c36559d56ca0d
fullsearch infer job0 14c6f75965cf367400e240137b8c8055
fullsearch infer delta0 00000000000000000000000000000000
fullsearch infer job1 3fc23d8e5ddd088a603c36559d56ca0d
fullsearch infer delta1 00000000000000000000000000000000
whetstone infer base0 a0c4026b70763ac4f0d61cab2191cf68
whetstone infer base1 079fcf71c5aace65a0a01f81b35ad77b
whetstone infer job0 a0c4026b70763ac4f0d61cab2191cf68
whetstone infer delta0 00000000000000000000000000000000
whetstone infer job1 079fcf71c5aace65a0a01f81b35ad77b
whetstone infer delta1 00000000000000000000000000000000
dhry infer base0 9129607901f380823495a30a3db1c448
dhry infer base1 87086cb10ed29f86374f361c2fef7b8c
dhry infer job0 cbca252efaedd6bb71a4db81661e1b7e
dhry infer delta0 9712d183e3dbce35780cd8905876f1cd
dhry infer job1 4223a4285dfc5ac4d9124c17ffe8dbad
dhry infer delta1 9712d183e3dbce35780cd8905876f1cd
dhry infer job2 1dbdab25a0d91300e3774e3333c4b17f
dhry infer delta2 55800fcb50f1ae5f57cd07839ec905c3
dhry infer job3 28c8d595f140ec64d0af3eef70da9092
dhry infer delta3 55800fcb50f1ae5f57cd07839ec905c3
dhry infer job4 1dbdab25a0d91300e3774e3333c4b17f
dhry infer delta4 55800fcb50f1ae5f57cd07839ec905c3
dhry infer job5 28c8d595f140ec64d0af3eef70da9092
dhry infer delta5 55800fcb50f1ae5f57cd07839ec905c3
matgen infer base0 03d9fdc7b3b3f19bbd52c50c28af686e
matgen infer base1 8af99161e5d217d4a062353fce33c1af
matgen infer job0 03d9fdc7b3b3f19bbd52c50c28af686e
matgen infer delta0 00000000000000000000000000000000
matgen infer job1 8af99161e5d217d4a062353fce33c1af
matgen infer delta1 00000000000000000000000000000000
";
