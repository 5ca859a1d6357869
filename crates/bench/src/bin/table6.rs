//! Regenerates **Table VI**: the Pareto-optimal configuration IDs for each
//! evaluation dataset (2-layer GCN, 128 hidden features), directly from
//! the analytical model at the paper's full-scale parameters.

use rdm_bench::TablePrinter;
use rdm_graph::paper_datasets;
use rdm_model::{pareto_ids, GnnShape};

fn main() {
    println!("Table VI: Pareto-optimal configurations (2-layer GCN, hidden = 128)");
    println!();
    let t = TablePrinter::new(&[14, 6, 5, 6, 20]);
    t.row(&[
        "Dataset".into(),
        "f_in".into(),
        "f_h".into(),
        "f_out".into(),
        "Candidate IDs".into(),
    ]);
    t.sep();
    for spec in paper_datasets() {
        let shape = GnnShape::gcn(
            spec.vertices,
            2 * spec.edges + spec.vertices,
            spec.feature_size,
            128,
            spec.labels,
            2,
        );
        let ids = pareto_ids(&shape, 8, 8, 1.0);
        let ids_str = ids
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        t.row(&[
            spec.name.clone(),
            spec.feature_size.to_string(),
            "128".into(),
            spec.labels.to_string(),
            ids_str,
        ]);
    }
    println!();
    println!("Paper values: Arxiv 5 | MAG 10 | Products 5 | Reddit 2,3,10 |");
    println!(
        "              Web-Google 2,3,10 | Com-Orkut 5,10 | CAMI-Airways 2,3,10 | CAMI-Oral 2,3,10"
    );
}
