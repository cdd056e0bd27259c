//! Regenerate the `saql explain` golden fixtures for the demo corpus.
//!
//! Run after an intentional plan change:
//!
//! ```text
//! cargo run -p saql-cli --example gen_explain_fixtures
//! ```
//!
//! The golden test (`explain_golden.rs`) diffs `saql explain` output
//! against these files, so plan regressions show up as readable diffs.

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/explain");
    std::fs::create_dir_all(dir).expect("create fixture dir");
    for (name, src) in saql_lang::corpus::DEMO_QUERIES {
        let query = saql_engine::RunningQuery::compile(name, src)
            .unwrap_or_else(|e| panic!("demo query {name} failed: {}", e.render(src)));
        let path = format!("{dir}/{name}.txt");
        std::fs::write(&path, query.explain()).expect("write fixture");
        println!("wrote {path}");
    }
    // The multi-stage pipeline fixture: topology header + per-stage plans,
    // exactly what `saql explain` prints for a `|>` file (minus the
    // `# <file>` header the golden test strips).
    let name = saql_lang::corpus::DEMO_TIERED_PIPELINE_NAME;
    let text =
        saql_engine::pipeline::explain_pipeline(name, saql_lang::corpus::DEMO_TIERED_PIPELINE)
            .unwrap_or_else(|e| panic!("demo pipeline failed: {e}"));
    let path = format!("{dir}/{name}.txt");
    std::fs::write(&path, text).expect("write fixture");
    println!("wrote {path}");
}
