//! On-disk format compatibility.
//!
//! The writer emits two iDistance footers: **v1** (verification tier off)
//! and **v3** (SQ8 verification code column on; the footer's legacy
//! scan-code slots marked absent). Files written by older builds must keep
//! working:
//!
//! * **v2** files (a scan-code region over the projected records, no
//!   verification tier) and **v3 files with a scan-code region** (the old
//!   default build) come from a scan tier that no longer exists. Two such
//!   files are frozen under `tests/fixtures/`, written from
//!   [`fixture_data`] with [`fixture_config`] by the last build that still
//!   had the scan-code writer (`quantize: true`; `verify_quantize: false`
//!   for the v2 file). They must reopen — the scan-code region and its
//!   directory skipped — and search exactly like a fresh build of the same
//!   data.
//! * v1/v2 files search with the verification tier **silently disabled** —
//!   no config flag, no error, just pure-f32 verification. Because the
//!   screen is bit-identical by construction, they return exactly the same
//!   items as a fresh v3 build; only the `screened`/`verified` accounting
//!   differs.
//! * v3 files roundtrip with the tier intact.
//! * A malformed directory is an `InvalidData` error, never a panic.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use promips_core::{ProMips, ProMipsConfig, SearchResult};
use promips_idistance::IDistanceConfig;
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, FileStorage, Pager};

/// Page size of the frozen fixtures.
const FIXTURE_PAGE: usize = 1024;

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

/// The seeded dataset the frozen fixtures index.
fn fixture_data() -> Matrix {
    random_data(300, 12, 0xF1C5)
}

fn config_for(verify_quantize: bool) -> ProMipsConfig {
    ProMipsConfig::builder()
        .c(0.9)
        .p(0.5)
        .seed(21)
        .idistance(IDistanceConfig {
            verify_quantize,
            ..Default::default()
        })
        .build()
}

/// The configuration the frozen fixtures were built with, minus the
/// removed scan-tier flag.
fn fixture_config(verify_quantize: bool) -> ProMipsConfig {
    ProMipsConfig {
        page_size: FIXTURE_PAGE,
        ..config_for(verify_quantize)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-fmt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_file(path: &Path, page_size: usize) -> io::Result<ProMips> {
    let storage = Arc::new(FileStorage::open(path, page_size)?);
    let pager = Arc::new(Pager::new(storage, 1024, AccessStats::new_shared()));
    ProMips::open(pager)
}

/// Builds with the given config, saves to `dir/name`, and returns the path.
fn save(data: &Matrix, dir: &Path, name: &str, cfg: ProMipsConfig) -> PathBuf {
    let path = dir.join(name);
    let storage = Arc::new(FileStorage::create(&path, cfg.page_size).unwrap());
    let pager = Arc::new(Pager::new(storage, 1024, AccessStats::new_shared()));
    ProMips::build_with_pager(data, cfg, pager)
        .unwrap()
        .save()
        .unwrap();
    path
}

/// Builds with the given config, saves, reopens from the file, and returns
/// the reopened handle (dropping the original).
fn save_reopen(data: &Matrix, dir: &Path, name: &str, cfg: ProMipsConfig) -> ProMips {
    let page_size = cfg.page_size;
    open_file(&save(data, dir, name, cfg), page_size).unwrap()
}

/// Opens a frozen fixture through a temporary copy, so the committed file
/// is never opened for writing.
fn open_fixture(name: &str, dir: &Path) -> ProMips {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let path = dir.join(name);
    std::fs::copy(&src, &path).unwrap();
    open_file(&path, FIXTURE_PAGE).unwrap()
}

/// Byte offset, inside the file, of the iDistance footer that
/// `ProMips::save` points at from the file's last page.
fn idistance_footer_offset(bytes: &[u8], page_size: usize) -> usize {
    let last = &bytes[bytes.len() - page_size..];
    let page = u64::from_le_bytes(last[8..16].try_into().unwrap());
    page as usize * page_size
}

fn assert_same_answer(got: &SearchResult, want: &SearchResult, label: &str) {
    assert_eq!(got.items, want.items, "{label}: items diverged");
    assert_eq!(got.termination, want.termination, "{label}: termination");
    assert_eq!(got.probe_radius, want.probe_radius, "{label}: probe radius");
    assert_eq!(got.final_radius, want.final_radius, "{label}: final radius");
}

#[test]
fn v1_and_v2_files_search_with_verify_tier_silently_disabled() {
    let data = fixture_data();
    let d = data.cols();
    let dir = temp_dir("v1v2");

    // The reference: a fresh current-format build.
    let fresh = ProMips::build_in_memory(&data, fixture_config(true)).unwrap();
    assert!(fresh.idistance().verify_quantized());

    // v1: written by this build with the verification tier off. v2: the
    // frozen file with a legacy scan-code region and no verification tier.
    let v1 = save_reopen(&data, &dir, "v1.pmx", fixture_config(false));
    let v2 = open_fixture("v2_scan_only.pmx", &dir);
    assert!(!v1.idistance().verify_quantized());
    assert!(!v2.idistance().verify_quantized());
    assert_eq!(v2.len(), fresh.len());

    let mut rng = Xoshiro256pp::seed_from_u64(56);
    let mut fresh_screened = 0usize;
    for _ in 0..12 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        for k in [1usize, 7, 20] {
            let want = fresh.search(&q, k).unwrap();
            fresh_screened += want.screened;
            for (legacy, label) in [(&v1, "v1"), (&v2, "v2")] {
                let got = legacy.search(&q, k).unwrap();
                assert_same_answer(&got, &want, label);
                assert_eq!(
                    got.screened, 0,
                    "{label}: legacy formats must never screen — the tier \
                     has no codes to screen with"
                );
                assert!(
                    got.verified >= want.verified,
                    "{label}: pure-f32 verification can only do more exact \
                     inner products, not fewer"
                );
            }
        }
    }
    assert!(
        fresh_screened > 0,
        "the v3 reference never screened — the comparison is vacuous"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn frozen_v3_file_with_scan_codes_matches_a_fresh_build() {
    let data = fixture_data();
    let d = data.cols();
    let dir = temp_dir("v3scan");

    let fresh = ProMips::build_in_memory(&data, fixture_config(true)).unwrap();
    let old = open_fixture("v3_scan_codes.pmx", &dir);
    assert!(old.idistance().verify_quantized());
    assert_eq!(old.idistance().vquants(), fresh.idistance().vquants());

    let mut rng = Xoshiro256pp::seed_from_u64(57);
    let mut screened = 0usize;
    for _ in 0..12 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        for k in [1usize, 7, 20] {
            let want = fresh.search(&q, k).unwrap();
            let got = old.search(&q, k).unwrap();
            assert_same_answer(&got, &want, "v3 with scan codes");
            assert_eq!(got.screened, want.screened, "screened, k={k}");
            assert_eq!(got.verified, want.verified, "verified, k={k}");
            screened += got.screened;
        }
    }
    assert!(
        screened > 0,
        "the frozen v3 file never screened — tier lost"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v3_files_roundtrip_with_verify_tier_intact() {
    let d = 16;
    let data = random_data(600, d, 81);
    let dir = temp_dir("v3");

    let fresh = ProMips::build_in_memory(&data, config_for(true)).unwrap();
    let reopened = save_reopen(&data, &dir, "v3.pmx", config_for(true));
    assert!(reopened.idistance().verify_quantized());

    let mut rng = Xoshiro256pp::seed_from_u64(82);
    let mut screened = 0usize;
    for _ in 0..8 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        let a = fresh.search(&q, 9).unwrap();
        let b = reopened.search(&q, 9).unwrap();
        assert_eq!(a.items, b.items);
        assert_eq!(a.verified, b.verified);
        assert_eq!(a.screened, b.screened);
        screened += b.screened;
    }
    assert!(screened > 0, "reopened v3 file never screened — tier lost");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every v3 file the writer emits is verification-only: the footer's
/// legacy scan-code slot holds the absent-region sentinel, and the file
/// reopens with exactly the verification tier.
#[test]
fn verify_only_builds_roundtrip() {
    let d = 14;
    let data = random_data(400, d, 33);
    let dir = temp_dir("vonly");

    let cfg = config_for(true);
    let page_size = cfg.page_size;
    let path = save(&data, &dir, "vonly.pmx", cfg);
    let bytes = std::fs::read(&path).unwrap();
    let footer = idistance_footer_offset(&bytes, page_size);
    // Fields 0–8 are magic, m, d, ε, C and the two data regions; field 9
    // is the legacy scan-code region's start page.
    let slot = &bytes[footer + 9 * 8..footer + 10 * 8];
    assert_eq!(u64::from_le_bytes(slot.try_into().unwrap()), u64::MAX);
    let reopened = open_file(&path, page_size).unwrap();
    assert!(reopened.idistance().verify_quantized());

    let fresh = ProMips::build_in_memory(&data, config_for(true)).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(34);
    for _ in 0..6 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        let a = fresh.search(&q, 5).unwrap();
        let b = reopened.search(&q, 5).unwrap();
        assert_eq!(a.items, b.items);
        assert_eq!(a.screened, b.screened);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A footer whose directory length is shorter than the counts inside the
/// directory must fail `open` with `InvalidData`, not panic while decoding.
#[test]
fn truncated_directory_is_invalid_data() {
    let data = random_data(300, 10, 91);
    let dir = temp_dir("corrupt");
    let cfg = config_for(true);
    let page_size = cfg.page_size;
    let path = save(&data, &dir, "corrupt.pmx", cfg);

    let mut bytes = std::fs::read(&path).unwrap();
    let footer = idistance_footer_offset(&bytes, page_size);
    // v3 field 12 is the directory's byte length.
    let dir_len = footer + 12 * 8;
    assert!(u64::from_le_bytes(bytes[dir_len..dir_len + 8].try_into().unwrap()) > 4);
    bytes[dir_len..dir_len + 8].copy_from_slice(&4u64.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let err = open_file(&path, page_size)
        .err()
        .expect("a truncated directory must not open");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
