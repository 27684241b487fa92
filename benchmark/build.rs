//! Records the compiler version for the benchmark's context record.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    let version = version.trim();
    println!(
        "cargo:rustc-env=ARMBENCH_RUSTC={}",
        if version.is_empty() {
            "unknown"
        } else {
            version
        }
    );
    println!("cargo:rerun-if-env-changed=RUSTC");
}
