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
check_data plain base0 9cb5490d548a6956100944f8913d613d
check_data plain base1 7d0f1b871f2018d9bb0f87af90e41a15
check_data plain job0 ad8048c68df77a099a81cd08bc7e547a
check_data plain job1 544d9cb35c4213c6ab810d9652c0628a
check_data plain job2 5f17fdaa9b304f959d741e629ce10a64
check_data plain job3 b9e02778ec62908fc50e7ec68ab064fb
fft plain base0 223aa8fe4851daff441cb19fb1c74490
fft plain base1 8d9d3c482cd31f62317338c1c068b3a8
fft plain job0 223aa8fe4851daff441cb19fb1c74490
fft plain job1 8d9d3c482cd31f62317338c1c068b3a8
piksrt plain base0 a40da78b93c687a49171def360909f5e
piksrt plain base1 5f23ea2c69acef2f13194442ab49b6c8
piksrt plain job0 a40da78b93c687a49171def360909f5e
piksrt plain job1 5f23ea2c69acef2f13194442ab49b6c8
des plain base0 20925138c0966447a9fad68b03cfbb91
des plain base1 e4157ae2c2fa6ce1a27aa1da353fa980
des plain job0 130b7700aa60d1fe5f90bc8f17daf6ad
des plain job1 6ca540198f630ba0060344665167f29d
des plain job2 f2170bd3f55661e11dd901340e4ec78b
des plain job3 347c9b6c79b17e8bfe94b6d3c87dc5c8
line plain base0 d2c814205b04a71ad1b9c33552795f40
line plain base1 120223905d863829560f219edd242b80
line plain job0 656705ab03f450a086b082be24ffd7a4
line plain job1 1825ee67828a95dc92f5822c0168d6fd
line plain job2 5cfed208b12e99db27f5cc63931aa6fa
line plain job3 98e241727d5f1fccfb82bffa0f7924e8
circle plain base0 093bae72718d912e4a295cb7660d93c1
circle plain base1 1bcc32c753df26156461ec15e66c8bb5
circle plain job0 093bae72718d912e4a295cb7660d93c1
circle plain job1 1bcc32c753df26156461ec15e66c8bb5
jpeg_fdct_islow plain base0 8824b25d70b58497dbd867ad93d039a1
jpeg_fdct_islow plain base1 503f51b4f29d8656cae3f5607189eb74
jpeg_fdct_islow plain job0 8824b25d70b58497dbd867ad93d039a1
jpeg_fdct_islow plain job1 503f51b4f29d8656cae3f5607189eb74
jpeg_idct_islow plain base0 778bf4757cfa0055d2f1b77294ec4ddc
jpeg_idct_islow plain base1 a9a8dd8c1f9eaef824e7be2d00e53f41
jpeg_idct_islow plain job0 778bf4757cfa0055d2f1b77294ec4ddc
jpeg_idct_islow plain job1 a9a8dd8c1f9eaef824e7be2d00e53f41
recon plain base0 d6f6843ffd6cf89cc2bd51cf17a908cd
recon plain base1 7f7ece3525791584a55c4ad12221255f
recon plain job0 d6f6843ffd6cf89cc2bd51cf17a908cd
recon plain job1 7f7ece3525791584a55c4ad12221255f
fullsearch plain base0 a5a6899fcf637a8d189b5373dfdb824d
fullsearch plain base1 ea41bf8de853857cfd8c61e3091c8d2b
fullsearch plain job0 a5a6899fcf637a8d189b5373dfdb824d
fullsearch plain job1 ea41bf8de853857cfd8c61e3091c8d2b
whetstone plain base0 aae240d191a4f2675a4428aee4204776
whetstone plain base1 26a2c07c91b10b4e047b9c6f5bcdc5ca
whetstone plain job0 aae240d191a4f2675a4428aee4204776
whetstone plain job1 26a2c07c91b10b4e047b9c6f5bcdc5ca
dhry plain base0 a64925c048e59c1912bc5ed49473b074
dhry plain base1 a56e08b649cefb913c5d6cbc1fa67575
dhry plain job0 84bf3a4738d345263e01444b368b9a00
dhry plain job1 537f7757434261b0996297b32e05a499
dhry plain job2 a1a1e92648f88e614aecf6916ac0b28d
dhry plain job3 1e2034cd7c9894d9d73c2a4e0db53200
dhry plain job4 a1a1e92648f88e614aecf6916ac0b28d
dhry plain job5 1e2034cd7c9894d9d73c2a4e0db53200
matgen plain base0 333331a0bb5a2ba76c6a2eb686b8f3c4
matgen plain base1 dd5323479ba7ab675a7daa81f682f645
matgen plain job0 333331a0bb5a2ba76c6a2eb686b8f3c4
matgen plain job1 dd5323479ba7ab675a7daa81f682f645
check_data infer base0 337cf4fa95f631c55ef9df6fe8bd7574
check_data infer base1 093a799be564d814c9e382c4fe492755
check_data infer job0 bd2892b09685e3b452169188274484c6
check_data infer job1 9a52c5dc136fc2c1e2fd1c4e4f8ee5f7
check_data infer job2 b96c2b8f5b1051ca484e6a3e4f7c0d34
check_data infer job3 077ec557a7a881b8caddffb7b25174c4
fft infer base0 90692be34bf34e41f37f10e3388dae17
fft infer base1 ed85eaddd1f34780a9b48114edbee42c
fft infer job0 90692be34bf34e41f37f10e3388dae17
fft infer job1 ed85eaddd1f34780a9b48114edbee42c
piksrt infer base0 ada8ec3416d2a8dc39436f4a30bbfdf2
piksrt infer base1 2aa978eaebe80a3290cf6b7b5fe8bbe1
piksrt infer job0 ada8ec3416d2a8dc39436f4a30bbfdf2
piksrt infer job1 2aa978eaebe80a3290cf6b7b5fe8bbe1
des infer base0 20925138c0966447a9fad68b03cfbb91
des infer base1 e4157ae2c2fa6ce1a27aa1da353fa980
des infer job0 130b7700aa60d1fe5f90bc8f17daf6ad
des infer job1 6ca540198f630ba0060344665167f29d
des infer job2 f2170bd3f55661e11dd901340e4ec78b
des infer job3 347c9b6c79b17e8bfe94b6d3c87dc5c8
line infer base0 d2c814205b04a71ad1b9c33552795f40
line infer base1 120223905d863829560f219edd242b80
line infer job0 656705ab03f450a086b082be24ffd7a4
line infer job1 1825ee67828a95dc92f5822c0168d6fd
line infer job2 5cfed208b12e99db27f5cc63931aa6fa
line infer job3 98e241727d5f1fccfb82bffa0f7924e8
circle infer base0 7fbf6566eb8ddab0164d7cfa4dc7e15e
circle infer base1 892058b5311218db2b485dc3d58798dd
circle infer job0 7fbf6566eb8ddab0164d7cfa4dc7e15e
circle infer job1 892058b5311218db2b485dc3d58798dd
jpeg_fdct_islow infer base0 8824b25d70b58497dbd867ad93d039a1
jpeg_fdct_islow infer base1 503f51b4f29d8656cae3f5607189eb74
jpeg_fdct_islow infer job0 8824b25d70b58497dbd867ad93d039a1
jpeg_fdct_islow infer job1 503f51b4f29d8656cae3f5607189eb74
jpeg_idct_islow infer base0 778bf4757cfa0055d2f1b77294ec4ddc
jpeg_idct_islow infer base1 a9a8dd8c1f9eaef824e7be2d00e53f41
jpeg_idct_islow infer job0 778bf4757cfa0055d2f1b77294ec4ddc
jpeg_idct_islow infer job1 a9a8dd8c1f9eaef824e7be2d00e53f41
recon infer base0 d6f6843ffd6cf89cc2bd51cf17a908cd
recon infer base1 7f7ece3525791584a55c4ad12221255f
recon infer job0 d6f6843ffd6cf89cc2bd51cf17a908cd
recon infer job1 7f7ece3525791584a55c4ad12221255f
fullsearch infer base0 a5a6899fcf637a8d189b5373dfdb824d
fullsearch infer base1 ea41bf8de853857cfd8c61e3091c8d2b
fullsearch infer job0 a5a6899fcf637a8d189b5373dfdb824d
fullsearch infer job1 ea41bf8de853857cfd8c61e3091c8d2b
whetstone infer base0 aae240d191a4f2675a4428aee4204776
whetstone infer base1 26a2c07c91b10b4e047b9c6f5bcdc5ca
whetstone infer job0 aae240d191a4f2675a4428aee4204776
whetstone infer job1 26a2c07c91b10b4e047b9c6f5bcdc5ca
dhry infer base0 a0e099f208a4531beb69751c6750120b
dhry infer base1 aace7dd24ccccd2510e67ac9f0f336cb
dhry infer job0 fb442ebad8b21dd068fbf51001c929e7
dhry infer job1 8507280fa55bb3d3cf37cc583a58ab90
dhry infer job2 f4dd2b9715441f7916c8891614d9e98c
dhry infer job3 d7b171cfd87887b46222a73a25b544d7
dhry infer job4 f4dd2b9715441f7916c8891614d9e98c
dhry infer job5 d7b171cfd87887b46222a73a25b544d7
matgen infer base0 333331a0bb5a2ba76c6a2eb686b8f3c4
matgen infer base1 dd5323479ba7ab675a7daa81f682f645
matgen infer job0 333331a0bb5a2ba76c6a2eb686b8f3c4
matgen infer job1 dd5323479ba7ab675a7daa81f682f645
";
