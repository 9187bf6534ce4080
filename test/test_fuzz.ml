(* The differential fuzzing subsystem: deterministic generation, a clean
   short run, mutation detection (the smoke-test CI relies on), corpus
   round-trips and shrinking. *)

open Relational

let small = { Fuzz.Gen.default with Fuzz.Gen.max_nodes = 4; Fuzz.Gen.max_rows = 6 }

let test_generation_deterministic () =
  List.iter
    (fun index ->
      let a = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:7 ~index ()) in
      let b = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:7 ~index ()) in
      Alcotest.(check (list string)) "same setup" a.Fuzz.Gen.sc_setup b.Fuzz.Gen.sc_setup;
      Alcotest.(check string) "same query" a.Fuzz.Gen.sc_query b.Fuzz.Gen.sc_query;
      let c = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:8 ~index ()) in
      Alcotest.(check bool) "different seed, different case" false
        (a.Fuzz.Gen.sc_setup = c.Fuzz.Gen.sc_setup && a.Fuzz.Gen.sc_query = c.Fuzz.Gen.sc_query))
    [ 0; 1; 2 ]

let test_generated_statements_parse () =
  for index = 0 to 14 do
    let sc = Fuzz.Gen.render (Fuzz.Gen.generate ~config:small ~seed:3 ~index ()) in
    List.iter (fun s -> ignore (Xnf.Xnf_parser.parse_stmt s)) sc.Fuzz.Gen.sc_setup;
    ignore (Xnf.Xnf_parser.parse_query sc.Fuzz.Gen.sc_query)
  done

let test_short_run_clean () =
  let report = Fuzz.Driver.run ~config:small ~seed:11 ~iters:30 () in
  Alcotest.(check int) "cases" 30 report.Fuzz.Driver.r_cases;
  List.iter
    (fun (f : Fuzz.Driver.failure) ->
      Alcotest.failf "case %s diverged: %s" f.Fuzz.Driver.fl_label f.Fuzz.Driver.fl_detail)
    report.Fuzz.Driver.r_failures;
  (* the oracles actually compared something *)
  let cov k = List.assoc k report.Fuzz.Driver.r_coverage in
  Alcotest.(check bool) "naive oracle exercised" true (cov "naive" > 0);
  Alcotest.(check bool) "lw90 oracle exercised" true (cov "lw90" > 0);
  Alcotest.(check bool) "monotonicity exercised" true (cov "mono" > 0);
  Alcotest.(check bool) "navigation guard exercised" true (cov "nav" > 0)

let test_mutations_caught () =
  List.iter
    (fun m ->
      let report = Fuzz.Driver.run ~config:small ~mutation:m ~seed:11 ~iters:20 () in
      Alcotest.(check bool)
        (Fuzz.Oracle.mutation_name m ^ " applied somewhere")
        true
        (report.Fuzz.Driver.r_mutated > 0);
      Alcotest.(check int)
        (Fuzz.Oracle.mutation_name m ^ " always caught")
        report.Fuzz.Driver.r_mutated report.Fuzz.Driver.r_caught)
    [ Fuzz.Oracle.Drop_conn; Fuzz.Oracle.Drop_tuple ]

let test_corpus_roundtrip () =
  let dir = Filename.temp_file "fuzz-corpus" "" in
  Sys.remove dir;
  let sc = Fuzz.Gen.render (Fuzz.Gen.generate ~config:small ~seed:5 ~index:2 ()) in
  let path = Fuzz.Corpus.write ~dir ~kinds:[ "fixpoint" ] sc in
  Alcotest.(check (list string)) "listed" [ path ] (Fuzz.Corpus.files dir);
  let back = Fuzz.Corpus.load path in
  Alcotest.(check (list string)) "setup round-trips" sc.Fuzz.Gen.sc_setup back.Fuzz.Gen.sc_setup;
  Alcotest.(check string) "query round-trips" sc.Fuzz.Gen.sc_query back.Fuzz.Gen.sc_query;
  Alcotest.(check string) "label from file name" sc.Fuzz.Gen.sc_label back.Fuzz.Gen.sc_label;
  let o = Fuzz.Driver.replay path in
  Alcotest.(check int) "replay clean" 0 (List.length o.Fuzz.Oracle.o_divs);
  Sys.remove path;
  Sys.rmdir dir

let test_repo_corpus_replays_clean () =
  (* the committed regression corpus must stay green; the dune test runs
     sandboxed, so resolve the repo examples directory from the env *)
  let dir =
    match Sys.getenv_opt "DUNE_SOURCEROOT" with
    | Some root -> Filename.concat root "examples/fuzz-corpus"
    | None -> "examples/fuzz-corpus"
  in
  match Fuzz.Corpus.files dir with
  | [] -> ()  (* corpus not visible from the sandbox: covered by ci.sh *)
  | files ->
    List.iter
      (fun path ->
        let o = Fuzz.Driver.replay path in
        List.iter
          (fun (d : Fuzz.Oracle.divergence) ->
            Alcotest.failf "%s: [%s] %s" path d.Fuzz.Oracle.d_kind d.Fuzz.Oracle.d_detail)
          o.Fuzz.Oracle.o_divs)
      files

let test_shrinker () =
  let case = Fuzz.Gen.generate ~seed:9 ~index:4 () in
  let size0 = Fuzz.Shrink.case_size case in
  (* predicate: the case still binds node n1 somewhere — the shrinker must
     strip everything not needed to keep n1 bound *)
  let binds_n1 (c : Fuzz.Gen.case) =
    List.exists
      (function Xnf.Xnf_ast.B_node { bn_name; _ } -> bn_name = "n1" | _ -> false)
      (List.concat_map (fun (_, q) -> q.Xnf.Xnf_ast.q_out_of) c.Fuzz.Gen.cs_views
      @ c.Fuzz.Gen.cs_query.Xnf.Xnf_ast.q_out_of)
  in
  Alcotest.(check bool) "predicate holds initially" true (binds_n1 case);
  let small_case, attempts = Fuzz.Shrink.minimize ~budget:500 ~pred:binds_n1 case in
  Alcotest.(check bool) "shrinking attempted" true (attempts > 0);
  Alcotest.(check bool) "still binds n1" true (binds_n1 small_case);
  Alcotest.(check bool) "strictly smaller" true (Fuzz.Shrink.case_size small_case < size0);
  (* a fully shrunk case keeps nothing but n1's binding and its table *)
  Alcotest.(check int) "one binding left" 1
    (List.length small_case.Fuzz.Gen.cs_query.Xnf.Xnf_ast.q_out_of);
  Alcotest.(check int) "no views left" 0 (List.length small_case.Fuzz.Gen.cs_views);
  (* the shrunk case still renders and parses *)
  let sc = Fuzz.Gen.render small_case in
  List.iter (fun s -> ignore (Xnf.Xnf_parser.parse_stmt s)) sc.Fuzz.Gen.sc_setup;
  ignore (Xnf.Xnf_parser.parse_query sc.Fuzz.Gen.sc_query)

let test_monotone_classifier () =
  let open Xnf.Xnf_ast in
  let p = { p_start = "v"; p_steps = [ Step_edge "e0" ] } in
  let node pred = R_node { rn_node = "n0"; rn_var = Some "v"; rn_pred = pred } in
  Alcotest.(check bool) "EXISTS is monotone" true
    (Fuzz.Oracle.monotone_restrictions [ node (X_exists_path p) ]);
  Alcotest.(check bool) "NOT EXISTS is not" false
    (Fuzz.Oracle.monotone_restrictions [ node (X_not (X_exists_path p)) ]);
  Alcotest.(check bool) "COUNT lower bound is monotone" true
    (Fuzz.Oracle.monotone_restrictions
       [ node (X_cmp (Relational.Expr.Ge, X_count_path p, X_lit (Value.Int 1))) ]);
  Alcotest.(check bool) "COUNT upper bound is not" false
    (Fuzz.Oracle.monotone_restrictions
       [ node (X_cmp (Relational.Expr.Le, X_count_path p, X_lit (Value.Int 1))) ]);
  Alcotest.(check bool) "SQL-only predicates are monotone" true
    (Fuzz.Oracle.monotone_restrictions
       [ node (X_cmp (Relational.Expr.Ge, X_col (Some "v", "g"), X_lit (Value.Int 1))) ])

let test_oracle_flags () =
  (* a recursive case skips the DAG-only oracles; forcing DAGs re-enables
     them (classification, not catch-and-ignore) *)
  let dag = { small with Fuzz.Gen.allow_recursive = false } in
  let report = Fuzz.Driver.run ~config:dag ~seed:13 ~iters:15 () in
  Alcotest.(check int) "no divergences" 0 (List.length report.Fuzz.Driver.r_failures);
  Alcotest.(check int) "no recursion generated" 0
    (List.assoc "recursive" report.Fuzz.Driver.r_coverage);
  Alcotest.(check int) "every case hits the unshared oracle" 15
    (List.assoc "naive" report.Fuzz.Driver.r_coverage)

let suite =
  [ Alcotest.test_case "generation is deterministic" `Quick test_generation_deterministic;
    Alcotest.test_case "generated statements parse" `Quick test_generated_statements_parse;
    Alcotest.test_case "short run finds no divergence" `Quick test_short_run_clean;
    Alcotest.test_case "injected mutations are caught" `Quick test_mutations_caught;
    Alcotest.test_case "corpus write/load round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "committed corpus replays clean" `Quick test_repo_corpus_replays_clean;
    Alcotest.test_case "shrinker minimizes to the predicate" `Quick test_shrinker;
    Alcotest.test_case "monotonicity classifier" `Quick test_monotone_classifier;
    Alcotest.test_case "DAG-only oracles classified up front" `Quick test_oracle_flags ]
