(* Integration tests: the XNF API — cursors and manipulation operations
   (§3.7), including propagation to base tables. *)

open Relational

let mk () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "CREATE TABLE proj (pno INTEGER PRIMARY KEY, pname VARCHAR, pdno INTEGER)";
      "CREATE TABLE empproj (epeno INTEGER, eppno INTEGER, percentage INTEGER)";
      "INSERT INTO dept VALUES (1, 'd1', 'NY', 1000), (2, 'd2', 'SF', 2000)";
      "INSERT INTO emp VALUES (1, 'e1', 1000, 1), (2, 'e2', 1800, 1), (3, 'e3', 900, 2)";
      "INSERT INTO proj VALUES (10, 'p10', 1), (11, 'p11', 2)";
      "INSERT INTO empproj VALUES (1, 10, 40), (2, 10, 60)" ];
  let api = Xnf.Api.create db in
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW V AS OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ, \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno), \
        ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno), \
        membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage AS percentage \
        USING EMPPROJ ep WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno) TAKE *");
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  (db, api, cache)

let find_by_key cache node k =
  let ni = Xnf.Cache.node cache node in
  (List.find (fun t -> Value.equal (Xnf.Cache.col t 0) (Value.Int k)) (Xnf.Cache.live_tuples ni))
    .Xnf.Cache.t_pos

let int_at db sql =
  match Db.rows_of db sql with
  | [ row ] -> row.(0)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* ---- cursors ---- *)

let test_independent_cursor () =
  let _, _, cache = mk () in
  let c = Xnf.Cursor.open_independent cache "xemp" in
  let names =
    Xnf.Cursor.to_list c
    |> List.map (fun t -> Value.as_string (Xnf.Cache.col t 1))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "all emps" [ "e1"; "e2"; "e3" ] names;
  Alcotest.(check bool) "exhausted" true (Xnf.Cursor.next c = None)

let test_dependent_cursor_follows_parent () =
  let _, _, cache = mk () in
  let d = Xnf.Cursor.open_independent cache "xdept" in
  let e = Xnf.Cursor.open_dependent ~parent:d (Xnf.Cursor.via "employment") in
  (* before the parent positions, the dependent cursor is empty *)
  Alcotest.(check bool) "empty before parent" true (Xnf.Cursor.next e = None);
  ignore (Xnf.Cursor.next d);
  let first_children = List.length (Xnf.Cursor.to_list e) in
  ignore (Xnf.Cursor.next d);
  let second_children = List.length (Xnf.Cursor.to_list e) in
  Alcotest.(check (list int)) "children per dept" [ 2; 1 ] [ first_children; second_children ]

let test_dependent_cursor_multi_step () =
  let _, _, cache = mk () in
  let d = Xnf.Cursor.open_independent cache "xdept" in
  ignore (Xnf.Cursor.next d);
  (* d1 -> ownership -> p10 -> membership -> e1, e2 *)
  let emps =
    Xnf.Cursor.open_dependent ~parent:d
      [ Xnf.Xnf_ast.Step_edge "ownership"; Xnf.Xnf_ast.Step_edge "membership" ]
  in
  Alcotest.(check int) "two project members" 2 (List.length (Xnf.Cursor.to_list emps))

let test_reverse_traversal () =
  let _, _, cache = mk () in
  let e = Xnf.Cursor.open_independent cache "xemp" in
  ignore (Xnf.Cursor.next e);
  (* child -> parent direction across 'employment' *)
  let d = Xnf.Cursor.open_dependent ~parent:e (Xnf.Cursor.via "employment") in
  Alcotest.(check string) "lands on dept" "xdept" (Xnf.Cursor.node_name d);
  Alcotest.(check int) "one employer" 1 (List.length (Xnf.Cursor.to_list d))

(* ---- udi ---- *)

let test_update_propagates () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let pos = find_by_key cache "xemp" 1 in
  Xnf.Udi.update ses ~node:"xemp" ~pos [ ("sal", Value.Int 1111) ];
  Alcotest.(check bool) "base updated" true
    (Value.equal (int_at db "SELECT sal FROM emp WHERE eno = 1") (Value.Int 1111))

let test_update_locked_column_rejected () =
  let _, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let pos = find_by_key cache "xemp" 1 in
  try
    Xnf.Udi.update ses ~node:"xemp" ~pos [ ("edno", Value.Int 2) ];
    Alcotest.fail "expected locked-column rejection"
  with Xnf.Udi.Udi_error _ -> ()

let test_fk_connect_disconnect () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let d2 = find_by_key cache "xdept" 2 in
  let e1 = find_by_key cache "xemp" 1 in
  Xnf.Udi.disconnect ses ~edge:"employment" ~parent:(find_by_key cache "xdept" 1) ~child:e1;
  Alcotest.(check bool) "FK nullified" true
    (Value.is_null (int_at db "SELECT edno FROM emp WHERE eno = 1"));
  Xnf.Udi.connect ses ~edge:"employment" ~parent:d2 ~child:e1 ();
  Alcotest.(check bool) "FK set to new parent" true
    (Value.equal (int_at db "SELECT edno FROM emp WHERE eno = 1") (Value.Int 2))

let test_link_connect_disconnect () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let p11 = find_by_key cache "xproj" 11 in
  let e3 = find_by_key cache "xemp" 3 in
  Xnf.Udi.connect ses ~edge:"membership" ~parent:p11 ~child:e3
    ~attrs:[ ("percentage", Value.Int 25) ] ();
  Alcotest.(check bool) "link tuple inserted" true
    (Value.equal (int_at db "SELECT percentage FROM empproj WHERE eppno = 11 AND epeno = 3")
       (Value.Int 25));
  Xnf.Udi.disconnect ses ~edge:"membership" ~parent:p11 ~child:e3;
  Alcotest.(check int) "link tuple deleted" 0
    (List.length (Db.rows_of db "SELECT * FROM empproj WHERE eppno = 11 AND epeno = 3"))

(* a USING disconnect deletes every link row matching both bindings,
   whether the candidates come from an index on one link column or from
   a scan *)
let test_link_disconnect_indexed () =
  let remaining indexed =
    let db, api, _ = mk () in
    List.iter
      (fun s -> ignore (Db.exec db s))
      ([ "INSERT INTO empproj VALUES (1, 10, 5), (1, 11, 7), (3, 10, 9)" ]
      @ if indexed then [ "CREATE INDEX ep_e ON empproj (epeno)"; "CREATE INDEX ep_p ON empproj (eppno)" ]
        else []);
    let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
    let ses = Xnf.Api.session api cache in
    Xnf.Udi.disconnect ses ~edge:"membership" ~parent:(find_by_key cache "xproj" 10)
      ~child:(find_by_key cache "xemp" 1);
    Db.rows_of db "SELECT epeno, eppno FROM empproj"
    |> List.map (fun r -> (Value.as_int r.(0), Value.as_int r.(1)))
    |> List.sort compare
  in
  let expected = [ (1, 11); (2, 10); (3, 10) ] in
  Alcotest.(check (list (pair int int))) "scan" expected (remaining false);
  Alcotest.(check (list (pair int int))) "index" expected (remaining true)

let test_disconnect_unreachable_leaves_co () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let d1 = find_by_key cache "xdept" 1 in
  let e2pos = find_by_key cache "xemp" 2 in
  (* e2 is reachable via employment AND membership(p10); kill both *)
  Xnf.Udi.disconnect ses ~edge:"membership" ~parent:(find_by_key cache "xproj" 10) ~child:e2pos;
  Xnf.Udi.disconnect ses ~edge:"employment" ~parent:d1 ~child:e2pos;
  let ni = Xnf.Cache.node cache "xemp" in
  let t = Xnf.Cache.tuple ni e2pos in
  Alcotest.(check bool) "left the CO" false t.Xnf.Cache.t_live;
  (* but the base row is still there (disconnect is not delete) *)
  Alcotest.(check int) "base row kept" 1
    (List.length (Db.rows_of db "SELECT * FROM emp WHERE eno = 2"))

let test_delete_tuple () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let e1 = find_by_key cache "xemp" 1 in
  Xnf.Udi.delete ses ~node:"xemp" ~pos:e1;
  Alcotest.(check int) "base row deleted" 0
    (List.length (Db.rows_of db "SELECT * FROM emp WHERE eno = 1"));
  (* its membership link rows must be gone too (attached instances) *)
  Alcotest.(check int) "link rows deleted" 0
    (List.length (Db.rows_of db "SELECT * FROM empproj WHERE epeno = 1"))

let test_delete_parent_nullifies_children () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let d1 = find_by_key cache "xdept" 1 in
  Xnf.Udi.delete ses ~node:"xdept" ~pos:d1;
  Alcotest.(check int) "dept deleted" 0 (List.length (Db.rows_of db "SELECT * FROM dept WHERE dno = 1"));
  (* children disconnected: FK nullified, rows kept *)
  Alcotest.(check bool) "child FK nullified" true
    (Value.is_null (int_at db "SELECT edno FROM emp WHERE eno = 1"));
  Alcotest.(check int) "children kept" 3 (List.length (Db.rows_of db "SELECT * FROM emp"))

let test_insert_then_connect () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let pos =
    Xnf.Udi.insert ses ~node:"xemp" [| Value.Int 9; Value.Str "new"; Value.Int 700; Value.Null |]
  in
  Alcotest.(check int) "base inserted" 1 (List.length (Db.rows_of db "SELECT * FROM emp WHERE eno = 9"));
  Xnf.Udi.connect ses ~edge:"employment" ~parent:(find_by_key cache "xdept" 1) ~child:pos ();
  Alcotest.(check bool) "connected" true
    (Value.equal (int_at db "SELECT edno FROM emp WHERE eno = 9") (Value.Int 1))

let test_deferred_coalesces () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let pos = find_by_key cache "xemp" 1 in
  let wal_before = Wal.length (Txn.wal (Db.txn db)) in
  Xnf.Udi.with_deferred ses (fun () ->
      for i = 1 to 10 do
        Xnf.Udi.update ses ~node:"xemp" ~pos [ ("sal", Value.Int (1000 + i)) ]
      done);
  let wal_after = Wal.length (Txn.wal (Db.txn db)) in
  Alcotest.(check int) "ten updates, one base write" 1 (wal_after - wal_before);
  Alcotest.(check bool) "final value" true
    (Value.equal (int_at db "SELECT sal FROM emp WHERE eno = 1") (Value.Int 1010))

let test_co_update_statement () =
  let db, api, _ = mk () in
  (match
     Xnf.Api.exec api
       "OUT OF V WHERE Xdept SUCH THAT loc = 'NY' UPDATE Xemp SET sal = sal + 100"
   with
  | Xnf.Api.Co_updated 2 -> ()
  | Xnf.Api.Co_updated n -> Alcotest.failf "expected 2 updates, got %d" n
  | _ -> Alcotest.fail "expected Co_updated");
  (* only NY-reachable employees (e1, e2) were raised *)
  Alcotest.(check bool) "e1 raised" true
    (Value.equal (int_at db "SELECT sal FROM emp WHERE eno = 1") (Value.Int 1100));
  Alcotest.(check bool) "e3 untouched" true
    (Value.equal (int_at db "SELECT sal FROM emp WHERE eno = 3") (Value.Int 900))

let test_co_update_locked_column_rejected () =
  let _, api, _ = mk () in
  try
    ignore (Xnf.Api.exec api "OUT OF V UPDATE Xemp SET edno = 2");
    Alcotest.fail "expected locked-column rejection"
  with Xnf.Udi.Udi_error _ -> ()

let test_optimistic_conflict_detected () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  (* another writer touches emp between fetch and our write *)
  ignore (Db.exec db "UPDATE emp SET sal = sal + 1 WHERE eno = 3");
  (try
     Xnf.Udi.update ses ~node:"xemp" ~pos:(find_by_key cache "xemp" 1) [ ("sal", Value.Int 1) ];
     Alcotest.fail "expected conflict"
   with Xnf.Udi.Udi_error _ -> ());
  (* validation off: last writer wins *)
  Xnf.Udi.set_validation ses false;
  Xnf.Udi.update ses ~node:"xemp" ~pos:(find_by_key cache "xemp" 1) [ ("sal", Value.Int 1) ];
  Alcotest.(check bool) "written" true
    (Value.equal (int_at db "SELECT sal FROM emp WHERE eno = 1") (Value.Int 1))

let test_own_writes_do_not_conflict () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  let e1 = find_by_key cache "xemp" 1 in
  Xnf.Udi.update ses ~node:"xemp" ~pos:e1 [ ("sal", Value.Int 1) ];
  Xnf.Udi.update ses ~node:"xemp" ~pos:e1 [ ("sal", Value.Int 2) ];
  Xnf.Udi.delete ses ~node:"xemp" ~pos:(find_by_key cache "xemp" 2);
  Alcotest.(check bool) "sequence applied" true
    (Value.equal (int_at db "SELECT sal FROM emp WHERE eno = 1") (Value.Int 2))

let test_deferred_conflict_detected_at_save () =
  let db, api, cache = mk () in
  let ses = Xnf.Api.session api cache in
  Xnf.Udi.set_deferred ses true;
  Xnf.Udi.update ses ~node:"xemp" ~pos:(find_by_key cache "xemp" 1) [ ("sal", Value.Int 1) ];
  ignore (Db.exec db "UPDATE emp SET sal = sal + 1 WHERE eno = 3");
  try
    Xnf.Udi.save ses;
    Alcotest.fail "expected conflict at save"
  with Xnf.Udi.Udi_error _ -> ()

let test_readonly_node_rejected () =
  let db, api, _ = mk () in
  (* an aggregated node is not updatable *)
  let cache =
    Xnf.Api.fetch_string api
      "OUT OF Xstat AS (SELECT edno, COUNT(*) AS n FROM emp GROUP BY edno) TAKE *"
  in
  let ses = Xnf.Udi.session db cache in
  let ni = Xnf.Cache.node cache "xstat" in
  Alcotest.(check bool) "not updatable" true (ni.Xnf.Cache.ni_upd = None);
  try
    Xnf.Udi.update ses ~node:"xstat" ~pos:0 [ ("n", Value.Int 0) ];
    Alcotest.fail "expected rejection"
  with Xnf.Udi.Udi_error _ -> ()

let suite =
  [ Alcotest.test_case "independent cursor" `Quick test_independent_cursor;
    Alcotest.test_case "dependent cursor follows parent" `Quick test_dependent_cursor_follows_parent;
    Alcotest.test_case "multi-step dependent cursor" `Quick test_dependent_cursor_multi_step;
    Alcotest.test_case "reverse traversal" `Quick test_reverse_traversal;
    Alcotest.test_case "update propagates" `Quick test_update_propagates;
    Alcotest.test_case "locked column rejected" `Quick test_update_locked_column_rejected;
    Alcotest.test_case "FK connect/disconnect" `Quick test_fk_connect_disconnect;
    Alcotest.test_case "link connect/disconnect" `Quick test_link_connect_disconnect;
    Alcotest.test_case "disconnect leaves CO, keeps base" `Quick test_disconnect_unreachable_leaves_co;
    Alcotest.test_case "delete tuple + attached links" `Quick test_delete_tuple;
    Alcotest.test_case "delete parent nullifies children" `Quick test_delete_parent_nullifies_children;
    Alcotest.test_case "insert then connect" `Quick test_insert_then_connect;
    Alcotest.test_case "deferred save coalesces" `Quick test_deferred_coalesces;
    Alcotest.test_case "CO UPDATE statement" `Quick test_co_update_statement;
    Alcotest.test_case "CO UPDATE locked column" `Quick test_co_update_locked_column_rejected;
    Alcotest.test_case "optimistic conflict detected" `Quick test_optimistic_conflict_detected;
    Alcotest.test_case "own writes do not conflict" `Quick test_own_writes_do_not_conflict;
    Alcotest.test_case "deferred conflict at save" `Quick test_deferred_conflict_detected_at_save;
    Alcotest.test_case "read-only node rejected" `Quick test_readonly_node_rejected;
    Alcotest.test_case "link disconnect through an index" `Quick test_link_disconnect_indexed ]
