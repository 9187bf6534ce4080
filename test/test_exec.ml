(* Integration tests: SQL end-to-end through the full pipeline. *)

open Relational

let mk_db () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "INSERT INTO dept VALUES (1,'toys','NY',1000),(2,'tools','SF',2000),(3,'books','NY',500)";
      "INSERT INTO emp VALUES (10,'alice',1500,1),(11,'bob',900,1),(12,'carol',2500,2),(13,'dave',800,NULL)" ];
  db

let ints rows = List.map (fun r -> Value.as_int r.(0)) rows

let strs rows = List.map (fun r -> Value.as_string r.(0)) rows

let test_filter_and_project () =
  let db = mk_db () in
  Alcotest.(check (list string)) "NY depts" [ "toys"; "books" ]
    (strs (Db.rows_of db "SELECT dname FROM dept WHERE loc = 'NY'"))

let test_join_comma_and_explicit () =
  let db = mk_db () in
  let a = Db.rows_of db "SELECT e.ename FROM dept d, emp e WHERE d.dno = e.edno ORDER BY e.ename" in
  let b = Db.rows_of db "SELECT e.ename FROM dept d JOIN emp e ON d.dno = e.edno ORDER BY e.ename" in
  Alcotest.(check (list string)) "same result" (strs a) (strs b);
  Alcotest.(check (list string)) "content" [ "alice"; "bob"; "carol" ] (strs a)

let test_left_join_null_padding () =
  let db = mk_db () in
  let rows =
    Db.rows_of db "SELECT e.ename, d.dname FROM emp e LEFT JOIN dept d ON e.edno = d.dno ORDER BY e.ename"
  in
  Alcotest.(check int) "all four emps" 4 (List.length rows);
  let dave = List.find (fun r -> Value.equal r.(0) (Value.Str "dave")) rows in
  Alcotest.(check bool) "dave unmatched" true (Value.is_null dave.(1))

let test_group_by_having () =
  let db = mk_db () in
  let rows =
    Db.rows_of db
      "SELECT d.loc, COUNT(*), SUM(e.sal), AVG(e.sal), MIN(e.sal), MAX(e.sal) \
       FROM dept d JOIN emp e ON d.dno = e.edno GROUP BY d.loc HAVING COUNT(*) >= 1 ORDER BY d.loc"
  in
  Alcotest.(check int) "two groups" 2 (List.length rows);
  let ny = List.hd rows in
  Alcotest.(check bool) "count" true (Value.equal ny.(1) (Value.Int 2));
  Alcotest.(check bool) "sum" true (Value.equal ny.(2) (Value.Int 2400));
  Alcotest.(check bool) "avg" true (Value.equal ny.(3) (Value.Float 1200.0));
  Alcotest.(check bool) "min" true (Value.equal ny.(4) (Value.Int 900));
  Alcotest.(check bool) "max" true (Value.equal ny.(5) (Value.Int 1500))

let test_global_aggregate_empty () =
  let db = mk_db () in
  let rows = Db.rows_of db "SELECT COUNT(*), SUM(sal) FROM emp WHERE sal > 99999" in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check bool) "count 0" true (Value.equal r.(0) (Value.Int 0));
  Alcotest.(check bool) "sum null" true (Value.is_null r.(1))

let test_distinct_order_limit () =
  let db = mk_db () in
  Alcotest.(check (list string)) "distinct locs" [ "NY"; "SF" ]
    (strs (Db.rows_of db "SELECT DISTINCT loc FROM dept ORDER BY loc"));
  Alcotest.(check (list int)) "top 2 salaries" [ 2500; 1500 ]
    (ints (Db.rows_of db "SELECT sal FROM emp ORDER BY sal DESC LIMIT 2"))

let test_correlated_exists () =
  let db = mk_db () in
  Alcotest.(check (list string)) "depts with emps" [ "tools"; "toys" ]
    (strs
       (Db.rows_of db
          "SELECT dname FROM dept d WHERE EXISTS (SELECT * FROM emp e WHERE e.edno = d.dno) ORDER BY dname"))

let test_not_exists_and_not_in () =
  let db = mk_db () in
  Alcotest.(check (list string)) "empty depts" [ "books" ]
    (strs
       (Db.rows_of db
          "SELECT dname FROM dept d WHERE NOT EXISTS (SELECT * FROM emp e WHERE e.edno = d.dno)"));
  Alcotest.(check (list string)) "not in" [ "books" ]
    (strs
       (Db.rows_of db
          "SELECT dname FROM dept WHERE dno NOT IN (SELECT edno FROM emp WHERE edno IS NOT NULL)"))

let test_scalar_subquery () =
  let db = mk_db () in
  Alcotest.(check (list string)) "top earner" [ "carol" ]
    (strs (Db.rows_of db "SELECT ename FROM emp WHERE sal = (SELECT MAX(sal) FROM emp)"))

let test_correlated_scalar () =
  let db = mk_db () in
  let rows =
    Db.rows_of db
      "SELECT ename FROM emp e WHERE sal > (SELECT AVG(sal) FROM emp e2 WHERE e2.edno = e.edno) ORDER BY ename"
  in
  (* alice earns above the dept-1 average; carol is the only dept-2 emp (not >) *)
  Alcotest.(check (list string)) "above dept average" [ "alice" ] (strs rows)

let test_insert_update_delete () =
  let db = mk_db () in
  (match Db.exec db "INSERT INTO emp VALUES (14, 'erin', 2000, 3)" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "insert");
  (match Db.exec db "UPDATE emp SET sal = sal * 2 WHERE edno = 3" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "update");
  Alcotest.(check (list int)) "doubled" [ 4000 ]
    (ints (Db.rows_of db "SELECT sal FROM emp WHERE eno = 14"));
  (match Db.exec db "DELETE FROM emp WHERE eno = 14" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "delete");
  Alcotest.(check int) "back to 4" 4 (List.length (Db.rows_of db "SELECT * FROM emp"))

let test_primary_key_enforced () =
  let db = mk_db () in
  try
    ignore (Db.exec db "INSERT INTO dept VALUES (1, 'dup', 'LA', 0)");
    Alcotest.fail "expected duplicate key error"
  with Db.Exec_error _ -> ()

let test_view_expansion () =
  let db = mk_db () in
  ignore (Db.exec db "CREATE VIEW ny_depts AS SELECT dno, dname FROM dept WHERE loc = 'NY'");
  Alcotest.(check (list string)) "view rows" [ "books"; "toys" ]
    (strs (Db.rows_of db "SELECT dname FROM ny_depts ORDER BY dname"));
  (* views compose with joins *)
  Alcotest.(check (list string)) "view join" [ "alice"; "bob" ]
    (strs
       (Db.rows_of db
          "SELECT e.ename FROM ny_depts v JOIN emp e ON v.dno = e.edno ORDER BY e.ename"))

let test_insert_partial_columns () =
  let db = mk_db () in
  ignore (Db.exec db "INSERT INTO emp (eno, ename) VALUES (20, 'zoe')");
  let rows = Db.rows_of db "SELECT sal FROM emp WHERE eno = 20" in
  Alcotest.(check bool) "missing cols null" true (Value.is_null (List.hd rows).(0))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_index_scan_used () =
  let db = mk_db () in
  ignore (Db.exec db "CREATE INDEX emp_edno ON emp (edno)");
  let plan = Db.explain db "SELECT * FROM emp WHERE edno = 1" in
  Alcotest.(check bool) "uses index" true (contains ~sub:"IndexScan" plan);
  (* the index keys NULL = NULL, but [col = NULL] is unknown *)
  ignore (Db.exec db "INSERT INTO emp (eno, ename) VALUES (21, 'nil')");
  Alcotest.(check int) "col = NULL matches nothing" 0
    (List.length (Db.rows_of db "SELECT * FROM emp WHERE edno = NULL"))

let test_union_sql () =
  let db = mk_db () in
  (* UNION ALL keeps duplicates, UNION deduplicates *)
  Alcotest.(check int) "union all" 6
    (List.length (Db.rows_of db "SELECT loc FROM dept UNION ALL SELECT loc FROM dept"));
  Alcotest.(check (list string)) "union dedups + order" [ "NY"; "SF" ]
    (strs (Db.rows_of db "SELECT loc FROM dept UNION SELECT loc FROM dept ORDER BY loc"));
  (* heterogeneous sources, ORDER BY and LIMIT over the whole chain *)
  Alcotest.(check (list string)) "mixed chain" [ "alice"; "books" ]
    (strs
       (Db.rows_of db
          "SELECT dname FROM dept WHERE loc = 'NY' UNION SELECT ename FROM emp WHERE eno = 10 \
           ORDER BY 1 LIMIT 2"));
  (* arity mismatch is a bind error *)
  try
    ignore (Db.rows_of db "SELECT dno, dname FROM dept UNION SELECT eno FROM emp");
    Alcotest.fail "expected arity error"
  with Binder.Bind_error _ -> ()

let test_group_by_expression () =
  let db = mk_db () in
  (* grouping on a computed key, matched structurally in the select list *)
  let rows =
    Db.rows_of db "SELECT sal / 1000, COUNT(*) FROM emp GROUP BY sal / 1000 ORDER BY 1"
  in
  Alcotest.(check int) "three buckets" 3 (List.length rows);
  Alcotest.(check bool) "bucket 0" true (Value.equal (List.hd rows).(0) (Value.Int 0))

let test_having_only_aggregate () =
  let db = mk_db () in
  (* the HAVING aggregate does not appear in the select list *)
  (* dept 1 payroll = 2400, dept 2 = 2500: only dept 2 passes 2450 *)
  let rows =
    Db.rows_of db
      "SELECT edno FROM emp WHERE edno IS NOT NULL GROUP BY edno HAVING SUM(sal) > 2450"
  in
  Alcotest.(check int) "one qualifying dept" 1 (List.length rows);
  Alcotest.(check bool) "it is dept 2" true (Value.equal (List.hd rows).(0) (Value.Int 2))

let test_count_distinct () =
  let db = mk_db () in
  let rows =
    Db.rows_of db
      "SELECT COUNT(DISTINCT loc), COUNT(loc), SUM(DISTINCT budget) FROM dept"
  in
  let r = List.hd rows in
  Alcotest.(check bool) "two distinct locs" true (Value.equal r.(0) (Value.Int 2));
  Alcotest.(check bool) "three rows counted" true (Value.equal r.(1) (Value.Int 3));
  (* budgets 1000, 2000, 500 are all distinct *)
  Alcotest.(check bool) "sum distinct" true (Value.equal r.(2) (Value.Int 3500));
  (* per-group distinct counting *)
  let rows =
    Db.rows_of db
      "SELECT d.loc, COUNT(DISTINCT e.edno) FROM dept d JOIN emp e ON d.dno = e.edno \
       GROUP BY d.loc ORDER BY d.loc"
  in
  Alcotest.(check bool) "NY has one distinct dept among its emps" true
    (Value.equal (List.hd rows).(1) (Value.Int 1))

let test_explain_statement () =
  let db = mk_db () in
  match Db.exec db "EXPLAIN SELECT * FROM dept WHERE dno = 1" with
  | Db.Done text ->
    Alcotest.(check bool) "shows a plan" true (contains ~sub:"Plan:" text);
    Alcotest.(check bool) "uses the PK index" true (contains ~sub:"IndexScan" text)
  | _ -> Alcotest.fail "expected Done"

let test_union_via_qgm () =
  (* UNION ALL is a QGM/plan-level operator used by the XNF translator *)
  let db = mk_db () in
  let q1 = Db.bind_select db (Sql_parser.parse_select "SELECT dno FROM dept WHERE loc = 'NY'") in
  let q2 = Db.bind_select db (Sql_parser.parse_select "SELECT dno FROM dept WHERE loc = 'SF'") in
  let rows = List.of_seq (Db.run_qgm db (Qgm.Union_all (q1, q2))) in
  Alcotest.(check int) "all three" 3 (List.length rows)

let suite =
  [ Alcotest.test_case "filter and project" `Quick test_filter_and_project;
    Alcotest.test_case "comma vs explicit join" `Quick test_join_comma_and_explicit;
    Alcotest.test_case "left join padding" `Quick test_left_join_null_padding;
    Alcotest.test_case "group by / having / aggregates" `Quick test_group_by_having;
    Alcotest.test_case "global aggregate over empty" `Quick test_global_aggregate_empty;
    Alcotest.test_case "distinct / order / limit" `Quick test_distinct_order_limit;
    Alcotest.test_case "correlated EXISTS" `Quick test_correlated_exists;
    Alcotest.test_case "NOT EXISTS / NOT IN" `Quick test_not_exists_and_not_in;
    Alcotest.test_case "scalar subquery" `Quick test_scalar_subquery;
    Alcotest.test_case "correlated scalar subquery" `Quick test_correlated_scalar;
    Alcotest.test_case "insert/update/delete" `Quick test_insert_update_delete;
    Alcotest.test_case "primary key enforcement" `Quick test_primary_key_enforced;
    Alcotest.test_case "tabular views" `Quick test_view_expansion;
    Alcotest.test_case "insert with column list" `Quick test_insert_partial_columns;
    Alcotest.test_case "index scan selection" `Quick test_index_scan_used;
    Alcotest.test_case "UNION / UNION ALL" `Quick test_union_sql;
    Alcotest.test_case "GROUP BY expression" `Quick test_group_by_expression;
    Alcotest.test_case "HAVING-only aggregate" `Quick test_having_only_aggregate;
    Alcotest.test_case "COUNT(DISTINCT)" `Quick test_count_distinct;
    Alcotest.test_case "EXPLAIN statement" `Quick test_explain_statement;
    Alcotest.test_case "union all at QGM level" `Quick test_union_via_qgm ]
