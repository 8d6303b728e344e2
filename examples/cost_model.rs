//! Exploring the Section-7 cost model (`nsql_engine::cost`, here
//! `nested_query_opt::engine::cost`): the four NEST-JA2 variants across
//! buffer sizes and temporary-table sizes, plus the nested-iteration
//! baseline — the paper's "each of which may be estimated by the
//! optimizer" rendered as tables.
//!
//! ```sh
//! cargo run --example cost_model
//! ```

use nested_query_opt::engine::cost::{
    ja2_cost, nested_iteration_cost_j, sort_cost, Ja2Params, JoinMethod,
};

fn main() {
    // The paper's own example first.
    let p = Ja2Params::paper_example();
    println!("Section 7.4 example: Pi={} Pj={} Pt2={} Pt3={} Pt4={} Pt={} B={} f(i)·Ni={}\n",
        p.pi, p.pj, p.pt2, p.pt3, p.pt4, p.pt, p.b, p.fi_ni);
    println!(
        "nested iteration (worst case): {:>6.0} page I/Os",
        nested_iteration_cost_j(p.pi, p.pj, p.b, p.fi_ni)
    );
    for m1 in [JoinMethod::NestedLoop, JoinMethod::MergeJoin] {
        for m2 in [JoinMethod::NestedLoop, JoinMethod::MergeJoin] {
            let c = ja2_cost(&p, m1, m2);
            println!(
                "NEST-JA2 {:>11} / {:>11}: {:>6.0}  (steps {:>5.1} + {:>6.1} + {:>5.1})",
                m1.name(),
                m2.name(),
                c.total(),
                c.outer_projection,
                c.temp_creation,
                c.final_join
            );
        }
    }

    // How the best variant changes with buffer size.
    println!("\nbest NEST-JA2 variant by buffer size (same relation sizes):");
    println!("{:>4}  {:>22}  {:>8}  {:>8}", "B", "best variant", "cost", "NI cost");
    for b in [3.0, 4.0, 6.0, 9.0, 16.0, 31.0, 64.0] {
        let p = Ja2Params { b, ..Ja2Params::paper_example() };
        let mut best = (f64::INFINITY, "");
        for (m1, m2, name) in [
            (JoinMethod::NestedLoop, JoinMethod::NestedLoop, "NL/NL"),
            (JoinMethod::NestedLoop, JoinMethod::MergeJoin, "NL/MJ"),
            (JoinMethod::MergeJoin, JoinMethod::NestedLoop, "MJ/NL"),
            (JoinMethod::MergeJoin, JoinMethod::MergeJoin, "MJ/MJ"),
        ] {
            let c = ja2_cost(&p, m1, m2).total();
            if c < best.0 {
                best = (c, name);
            }
        }
        println!(
            "{b:>4}  {:>22}  {:>8.0}  {:>8.0}",
            best.1,
            best.0,
            nested_iteration_cost_j(p.pi, p.pj, p.b, p.fi_ni)
        );
    }

    // The sort term that drives everything.
    println!("\nthe sort term 2·P·log_(B-1)(P) at B = 6:");
    println!("{:>6}  {:>10}", "P", "sort cost");
    for pages in [5.0, 10.0, 50.0, 100.0, 500.0, 1000.0] {
        println!("{pages:>6}  {:>10.0}", sort_cost(pages, 6.0));
    }
    println!(
        "\nReading: below B−1 pages the nested-loop variants win (no sorts);\n\
         beyond that the merge variants take over, and the final-join method\n\
         flips to nested loops exactly when Rt fits back into the buffer —\n\
         the structure the paper's optimizer is meant to search."
    );
}
