//! Regression tests for the `.tmp.*` orphan leak: a writer that dies
//! between `File::create` and the publishing `rename` used to leak its temp
//! file forever, and the pid-only suffix let an unrelated process (after
//! PID reuse) clobber a live tmp.  Now the suffix is pid + monotonic
//! counter and `EvalConfig::prepare` sweeps expired tmps by mtime TTL.

use std::fs::File;
use std::time::{Duration, SystemTime};

use cg_server::{sweep_stale_tmps, unique_tmp_path, EvalConfig, TMP_SWEEP_TTL};

fn age(path: &std::path::Path, by: Duration) {
    let old = SystemTime::now() - by;
    File::options()
        .write(true)
        .open(path)
        .expect("open for utimes")
        .set_modified(old)
        .expect("set mtime");
}

#[test]
fn sweep_removes_expired_orphans_and_spares_live_tmps() {
    let dir = std::env::temp_dir().join(format!("cg-tmp-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    // A planted orphan from a "dead recorder": old enough to be expired.
    let orphan = dir.join("db-s1-gcnone.cgt.tmp.12345-0");
    std::fs::write(&orphan, b"half-written").expect("plant orphan");
    age(&orphan, TMP_SWEEP_TTL + Duration::from_secs(60));

    // A fresh tmp from a recorder that is still alive.
    let live = dir.join("jess-s1-gcnone.cgt.tmp.777-3");
    std::fs::write(&live, b"in progress").expect("plant live tmp");

    // A published cache entry must never be touched, however old.
    let published = dir.join("db-s1-gcnone.cgt");
    std::fs::write(&published, b"published").expect("plant entry");
    age(&published, TMP_SWEEP_TTL * 10);

    let removed = sweep_stale_tmps(&dir, TMP_SWEEP_TTL);
    assert_eq!(removed, 1, "exactly the expired orphan goes");
    assert!(!orphan.exists(), "expired orphan swept");
    assert!(live.exists(), "fresh tmp (live writer) spared");
    assert!(published.exists(), "published entries are never swept");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_of_missing_directory_is_a_noop() {
    let dir = std::env::temp_dir().join("cg-tmp-sweep-does-not-exist");
    assert_eq!(sweep_stale_tmps(&dir, TMP_SWEEP_TTL), 0);
}

#[test]
fn opening_the_disk_cache_sweeps_planted_orphans() {
    let dir = std::env::temp_dir().join(format!("cg-cache-open-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let results = dir.join("results");
    std::fs::create_dir_all(&results).expect("mkdir");

    let orphan = results.join("1f-00000000-0000000000000000.stats.tmp.424242-0");
    std::fs::write(&orphan, b"dead evaluator leftovers").expect("plant orphan");
    age(&orphan, TMP_SWEEP_TTL + Duration::from_secs(1));

    let config = EvalConfig {
        cache_dir: dir.clone(),
        memoize: true,
        max_upload_bytes: 1 << 20,
        shard_min_bytes: 1 << 20,
    };
    config.prepare().expect("prepare");
    assert!(
        !orphan.exists(),
        "cache open must reclaim expired tmp orphans"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unique_tmp_paths_never_collide_within_a_process() {
    // PID reuse made the old `<pid>`-only suffix clobber-prone; the
    // monotonic counter makes every tmp name distinct even for one path.
    let path = std::path::Path::new("/tmp/cache/entry.cgt");
    let a = unique_tmp_path(path);
    let b = unique_tmp_path(path);
    assert_ne!(a, b, "same path, same pid, still distinct");
    for tmp in [&a, &b] {
        let name = tmp.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("entry.cgt.tmp."),
            "tmp keeps the published name as prefix: {name}"
        );
        assert!(
            name.contains(&format!(".tmp.{}-", std::process::id())),
            "tmp embeds pid and counter: {name}"
        );
    }
}
