//! `madpipe profile` writes the settings it profiled with, a saved
//! profile read back through `--profile` keeps them, and `--max-layers`
//! coarsens a `--profile` chain as it does a built-in network's. A chain
//! flag the chain is not built from exits 2 naming the flag.

use std::path::{Path, PathBuf};
use std::process::Command;

use madpipe_dnn::profile::Profile;
use madpipe_dnn::{coarsen, networks, GpuModel};

/// Run `madpipe args`, require exit 0 and return its stdout.
fn succeeds(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_madpipe"))
        .args(args)
        .output()
        .expect("spawn madpipe");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "madpipe {args:?} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// A fresh per-test artifact directory under the system temp dir.
fn artifact_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("madpipe-profile-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// `profile resnet50 --batch 4 --image 224 --gpu-model a100` into `out`.
fn save_a100_profile(out: &Path) -> Profile {
    succeeds(&[
        "profile",
        "resnet50",
        "--batch",
        "4",
        "--image",
        "224",
        "--gpu-model",
        "a100",
        "--out",
        path(out),
    ]);
    Profile::load(out).expect("profile written")
}

#[test]
fn a_profile_records_the_gpu_model_batch_and_image_it_used() {
    let dir = artifact_dir("a100");
    let saved = save_a100_profile(&dir.join("a100.json"));
    let a100 = GpuModel::by_name("a100").expect("a100 is built in");
    assert_eq!(saved.gpu, Some(a100));
    assert_eq!((saved.batch, saved.image_size), (4, 224));
    let chain = networks::resnet50().profile(4, 224, &a100).unwrap();
    assert_eq!(saved.chain.len(), chain.len());
    assert_eq!(
        saved.chain.total_compute_time().to_bits(),
        chain.total_compute_time().to_bits()
    );
    std::fs::remove_dir_all(&dir).expect("remove artifact dir");
}

#[test]
fn a_saved_profile_keeps_its_settings_and_obeys_max_layers() {
    let dir = artifact_dir("max-layers");
    let (full, small) = (dir.join("full.json"), dir.join("small.json"));
    let saved = save_a100_profile(&full);
    let layers = coarsen(&saved.chain, 10).len();
    assert!(layers < saved.chain.len());

    succeeds(&[
        "profile",
        "--profile",
        path(&full),
        "--max-layers",
        "10",
        "--out",
        path(&small),
    ]);
    let resaved = Profile::load(&small).expect("profile written");
    assert_eq!(
        (resaved.batch, resaved.image_size, resaved.gpu),
        (saved.batch, saved.image_size, saved.gpu),
        "a profile of a profile keeps the settings it was made with"
    );
    assert_eq!(resaved.chain.len(), layers);

    let plan = succeeds(&["plan", "--profile", path(&full), "--max-layers", "10"]);
    assert!(
        plan.starts_with(&format!("resnet50: {layers} layers,")),
        "plan must coarsen a --profile chain to --max-layers:\n{plan}"
    );
    std::fs::remove_dir_all(&dir).expect("remove artifact dir");
}

/// Run `madpipe args` and require exit 2 with an error naming `--flag`.
fn refuses(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_madpipe"))
        .args(args)
        .output()
        .expect("spawn madpipe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "madpipe {args:?} must exit 2\nstdout:\n{}\nstderr:\n{stderr}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains(&format!("--{flag} does not apply")),
        "madpipe {args:?} must name --{flag}:\n{stderr}"
    );
}

#[test]
fn chain_flags_the_chain_is_not_built_from_exit_2() {
    let plan = ["plan", "--gpus", "2", "--memory-gb", "8"];
    // A built-in network is sized by --batch, --image and --gpu-model, a
    // synthetic chain by --layers and --seed.
    for (chain, flag, value) in [
        ("resnet50", "layers", "5"),
        ("resnet50", "seed", "3"),
        ("synthetic", "batch", "2"),
        ("synthetic", "image", "224"),
        ("synthetic", "gpu-model", "a100"),
    ] {
        let set = format!("--{flag}");
        refuses(&[&plan[..], &[chain, &set, value]].concat(), flag);
    }
    // A --profile chain by its file alone, for `profile` too.
    let dir = artifact_dir("refused");
    let (saved, out) = (dir.join("saved.json"), dir.join("out.json"));
    succeeds(&["profile", "resnet50", "--out", path(&saved)]);
    let profile = ["profile", "--out", path(&out)];
    for (flag, value) in [
        ("batch", "2"),
        ("image", "224"),
        ("gpu-model", "a100"),
        ("layers", "5"),
        ("seed", "3"),
    ] {
        let set = format!("--{flag}");
        let from_file = ["--profile", path(&saved), &set, value];
        refuses(&[&plan[..], &from_file].concat(), flag);
        refuses(&[&profile[..], &from_file].concat(), flag);
    }
    std::fs::remove_dir_all(&dir).expect("remove artifact dir");
}
