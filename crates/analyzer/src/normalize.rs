//! Statement fingerprints for cumulative statistics.

use nsql_sql::{print_query_masked, QueryBlock};

/// The statement *fingerprint* used by cumulative statistics
/// (`nsql_stat_statements`): the whole query — nested blocks included —
/// rendered with every literal masked to `?`. It keeps structure, names,
/// and aliases but forgets constants, so repeated executions of the same
/// query shape aggregate under one key no matter which values they probe.
/// Structurally different statements never collide: everything except
/// literal values survives into the rendering.
pub fn query_fingerprint(q: &QueryBlock) -> String {
    print_query_masked(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sql::parse_query;

    #[test]
    fn fingerprint_collides_on_literals_only() {
        // Same shape, different constants → one fingerprint.
        let a = parse_query(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        )
        .unwrap();
        let b = parse_query(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 6-8-83)",
        )
        .unwrap();
        let fa = query_fingerprint(&a);
        assert_eq!(fa, query_fingerprint(&b), "constants must mask away");
        assert!(fa.contains('?'), "{fa}");
        assert!(!fa.contains("1980") && !fa.contains("1-1-80"), "{fa}");

        // IN-list literals mask element-wise (list arity is structure).
        let c = parse_query("SELECT SNO FROM SP WHERE PNO IN ('P1', 'P2')").unwrap();
        let d = parse_query("SELECT SNO FROM SP WHERE PNO IN ('P3', 'P4')").unwrap();
        let e = parse_query("SELECT SNO FROM SP WHERE PNO IN ('P1')").unwrap();
        assert_eq!(query_fingerprint(&c), query_fingerprint(&d));
        assert_ne!(query_fingerprint(&c), query_fingerprint(&e));

        // Structure must NOT collide: different table, column, operator,
        // nesting, or quantifier all produce distinct fingerprints.
        let base = parse_query("SELECT A FROM T WHERE B = 1").unwrap();
        for other in [
            "SELECT A FROM U WHERE B = 1",
            "SELECT A FROM T WHERE C = 1",
            "SELECT A FROM T WHERE B < 1",
            "SELECT A FROM T WHERE B = (SELECT MAX(B) FROM T)",
            "SELECT DISTINCT A FROM T WHERE B = 1",
        ] {
            let o = parse_query(other).unwrap();
            assert_ne!(
                query_fingerprint(&base),
                query_fingerprint(&o),
                "{other} must not collide"
            );
        }
    }

    #[test]
    fn referenced_tables_descend_into_subqueries() {
        let q = parse_query(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > \
             (SELECT MAX(QTY) FROM OLDSP)) AND NOT EXISTS (SELECT PNO FROM P X)",
        )
        .unwrap();
        // Base names, not aliases; dedup in first-occurrence order.
        assert_eq!(q.referenced_tables(), vec!["S", "SP", "OLDSP", "P"]);
        let dup = parse_query("SELECT A FROM T WHERE B IN (SELECT B FROM T)").unwrap();
        assert_eq!(dup.referenced_tables(), vec!["T"]);
    }
}
