//! Collaborative analytics: the paper's motivating scenario (§I, Fig. 1).
//!
//! A shared product dataset is loaded once; two teams fork it, run
//! independent data engineering, inspect each other's changes with
//! multi-scope diffs (Fig. 5), and merge back — all with zero data
//! copying.
//!
//! ```text
//! cargo run --example collaborative_analytics
//! ```

use forkbase::{ForkBase, PutOptions, VersionSpec};
use forkbase_postree::MergePolicy;
use forkbase_store::{ChunkStore, MemStore};
use forkbase_table::TableStore;

fn main() {
    let db = ForkBase::new(MemStore::new());
    let tables = TableStore::new(&db);

    // The admin loads the shared dataset.
    let mut csv = String::from("sku,name,price,stock\n");
    for i in 0..2000 {
        csv.push_str(&format!(
            "sku-{i:05},widget-{i},{}.99,{}\n",
            i % 90 + 9,
            i % 50
        ));
    }
    tables
        .load_csv(
            "products",
            &csv,
            0,
            &PutOptions::default()
                .author("admin")
                .message("initial load"),
        )
        .unwrap();
    let base_bytes = db.store().stored_bytes();
    println!("loaded 2000-row dataset ({base_bytes} bytes stored)");

    // Each team forks. Branching copies nothing.
    db.branch("products", "master", "team-a").unwrap();
    db.branch("products", "master", "team-b").unwrap();
    println!(
        "two forks cost {} extra bytes",
        db.store().stored_bytes() - base_bytes
    );

    // Ana (team A) runs a price correction on her fork.
    for sku in ["sku-00010", "sku-00011", "sku-00012"] {
        tables
            .update_cell(
                "products",
                sku,
                "price",
                "24.99",
                &PutOptions::on_branch("team-a")
                    .author("ana")
                    .message("price fix"),
            )
            .unwrap();
    }

    // Ben (team B) restocks a disjoint set of rows.
    for sku in ["sku-01900", "sku-01901"] {
        tables
            .update_cell(
                "products",
                sku,
                "stock",
                "500",
                &PutOptions::on_branch("team-b")
                    .author("ben")
                    .message("restock"),
            )
            .unwrap();
    }

    // The admin reviews each team's work with a multi-scope diff.
    for team in ["team-a", "team-b"] {
        let diff = tables
            .diff(
                "products",
                &VersionSpec::default(), // master head
                &VersionSpec::branch(team),
            )
            .unwrap();
        println!("\n--- review of {team} ---");
        print!("{}", diff.render());
    }

    // A dashboard scans one page of each team's fork through a pinned
    // snapshot: the cursor streams entries in O(chunk) memory, and a
    // concurrent merge cannot shift the page mid-scan.
    let snap = db
        .snapshot("products", &VersionSpec::branch("team-a"))
        .unwrap();
    let page: Vec<_> = snap
        .map_range(b"sku-00010".as_slice()..b"sku-00013".as_slice())
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    println!(
        "\nteam-a rows sku-00010..sku-00013 ({} entries)",
        page.len()
    );

    // Merge both teams back; edits are disjoint so no conflicts.
    db.merge(
        "products",
        "master",
        "team-a",
        MergePolicy::Fail,
        &PutOptions::default().author("admin"),
    )
    .unwrap();
    db.merge(
        "products",
        "master",
        "team-b",
        MergePolicy::Fail,
        &PutOptions::default().author("admin"),
    )
    .unwrap();

    let merged_row = tables
        .row("products", &VersionSpec::branch("master"), "sku-00010")
        .unwrap()
        .unwrap();
    println!("\nafter merge, sku-00010 price = {}", merged_row[2]);

    // Full audit: every version on master re-validates from the head uid.
    let versions = db.verify_branch("products", "master").unwrap();
    println!("audit passed: {versions} versions verified");
    println!(
        "total storage after the whole workflow: {} bytes ({}x the raw CSV)",
        db.store().stored_bytes(),
        db.store().stored_bytes() / csv.len() as u64
    );
}
