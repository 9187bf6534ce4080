(* Unit tests: cache key indexes, ordered cursors, materialized COs. *)

open Relational

let mk () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "INSERT INTO dept VALUES (1, 'd1', 100), (2, 'd2', 200)";
      "INSERT INTO emp VALUES (1, 'c', 900, 1), (2, 'a', 300, 1), (3, 'b', 500, 2), (4, 'a', 100, 2)" ];
  let api = Xnf.Api.create db in
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW V AS OUT OF Xdept AS DEPT, Xemp AS EMP, \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *");
  (db, api)

let test_key_index () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  let ki = Xnf.Cache.build_key_index cache ~node:"xemp" ~col:"ename" in
  Alcotest.(check int) "two a's" 2 (List.length (Xnf.Cache.lookup_key cache ki (Value.Str "a")));
  Alcotest.(check int) "one b" 1 (List.length (Xnf.Cache.lookup_key cache ki (Value.Str "b")));
  Alcotest.(check bool) "missing" true (Xnf.Cache.lookup_key_one cache ki (Value.Str "z") = None);
  (* tombstoned tuples are filtered out of lookups *)
  let ni = Xnf.Cache.node cache "xemp" in
  let b_pos = Option.get (Xnf.Cache.lookup_key_one cache ki (Value.Str "b")) in
  (Xnf.Cache.tuple ni b_pos).Xnf.Cache.t_live <- false;
  Alcotest.(check int) "dead filtered" 0 (List.length (Xnf.Cache.lookup_key cache ki (Value.Str "b")))

let test_key_index_errors () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  (try
     ignore (Xnf.Cache.build_key_index cache ~node:"xemp" ~col:"nosuch");
     Alcotest.fail "expected unknown column"
   with Xnf.Cache.Cache_error _ -> ());
  try
    ignore (Xnf.Cache.build_key_index cache ~node:"nosuch" ~col:"eno");
    Alcotest.fail "expected unknown node"
  with Xnf.Cache.Cache_error _ -> ()

let names c = List.map (fun t -> Value.as_string (Xnf.Cache.col t 1)) (Xnf.Cursor.to_list c)

let test_ordered_cursor () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  let asc = Xnf.Cursor.open_independent ~order:("ename", `Asc) cache "xemp" in
  Alcotest.(check (list string)) "ascending" [ "a"; "a"; "b"; "c" ] (names asc);
  let desc = Xnf.Cursor.open_independent ~order:("sal", `Desc) cache "xemp" in
  Alcotest.(check (list string)) "by salary desc" [ "c"; "b"; "a"; "a" ] (names desc);
  (* reset keeps the ordering *)
  Xnf.Cursor.reset desc;
  Alcotest.(check (list string)) "after reset" [ "c"; "b"; "a"; "a" ] (names desc)

let test_ordered_cursor_unknown_column () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  try
    ignore (Xnf.Cursor.open_independent ~order:("zzz", `Asc) cache "xemp");
    Alcotest.fail "expected cursor error"
  with Xnf.Cursor.Cursor_error _ -> ()

let test_materialized_serves_fresh () =
  let db, api = mk () in
  let mat = Xnf.Materialized.create db (Xnf.Api.registry api) in
  Xnf.Materialized.define_string mat ~name:"orgs" "OUT OF V TAKE *";
  let c1 = Xnf.Materialized.get mat "orgs" in
  let c2 = Xnf.Materialized.get mat "orgs" in
  Alcotest.(check bool) "same instance while fresh" true (c1 == c2);
  Alcotest.(check (pair int int)) "one load, one hit" (1, 1) (Xnf.Materialized.stats mat "orgs")

let test_materialized_reloads_on_change () =
  let db, api = mk () in
  let mat = Xnf.Materialized.create db (Xnf.Api.registry api) in
  Xnf.Materialized.define_string mat ~name:"orgs" "OUT OF V TAKE *";
  let c1 = Xnf.Materialized.get mat "orgs" in
  ignore (Db.exec db "INSERT INTO emp VALUES (9, 'z', 50, 1)");
  let c2 = Xnf.Materialized.get mat "orgs" in
  Alcotest.(check bool) "reloaded" true (not (c1 == c2));
  Alcotest.(check int) "sees the new employee" 5
    (Xnf.Cache.live_count (Xnf.Cache.node c2 "xemp"))

let test_materialized_own_writes_stay_fresh () =
  let db, api = mk () in
  let mat = Xnf.Materialized.create db (Xnf.Api.registry api) in
  Xnf.Materialized.define_string mat ~name:"orgs" "OUT OF V TAKE *";
  let c1 = Xnf.Materialized.get mat "orgs" in
  (* a udi session on the materialized instance refreshes the snapshot *)
  let ses = Xnf.Udi.session db c1 in
  Xnf.Udi.with_deferred ses (fun () ->
      Xnf.Udi.update ses ~node:"xemp" ~pos:0 [ ("sal", Value.Int 901) ]);
  let c2 = Xnf.Materialized.get mat "orgs" in
  Alcotest.(check bool) "own write does not invalidate" true (c1 == c2)

let test_materialized_invalidate_and_errors () =
  let db, api = mk () in
  let mat = Xnf.Materialized.create db (Xnf.Api.registry api) in
  Xnf.Materialized.define_string mat ~name:"orgs" "OUT OF V TAKE *";
  let c1 = Xnf.Materialized.get mat "orgs" in
  Xnf.Materialized.invalidate mat "orgs";
  let c2 = Xnf.Materialized.get mat "orgs" in
  Alcotest.(check bool) "invalidate forces reload" true (not (c1 == c2));
  (try
     Xnf.Materialized.define_string mat ~name:"orgs" "OUT OF V TAKE *";
     Alcotest.fail "expected duplicate error"
   with Xnf.Materialized.Materialized_error _ -> ());
  try
    ignore (Xnf.Materialized.get mat "nosuch");
    Alcotest.fail "expected unknown error"
  with Xnf.Materialized.Materialized_error _ -> ()

let test_recompute_reachability_rootless () =
  let _, api = mk () in
  (* evaluate-then-project: the output drops the root; maintenance must not
     wipe the instance *)
  let cache = Xnf.Api.fetch_string api "OUT OF V WHERE Xdept SUCH THAT budget > 150 TAKE Xemp(*)" in
  Alcotest.(check int) "emps of big dept" 2 (Xnf.Cache.live_count (Xnf.Cache.node cache "xemp"));
  Xnf.Cache.recompute_reachability cache;
  Alcotest.(check int) "still there" 2 (Xnf.Cache.live_count (Xnf.Cache.node cache "xemp"))

(* ---- navigation: the one gather against a brute-force model ---- *)

let nav_schema = Schema.make [ Schema.column "k" Schema.Ty_int ]

let nav_node name n =
  let ni = Xnf.Cache.make_node ~schema:nav_schema ~upd:None name in
  for i = 0 to n - 1 do
    ignore (Xnf.Cache.add_tuple ni ~rowid:(-1) [| Dict.encode (Value.Int i) |])
  done;
  ni

let nav_edge name (p : Xnf.Cache.node_inst) (c : Xnf.Cache.node_inst) =
  { Xnf.Cache.ei_name = name; ei_parent = p.Xnf.Cache.ni_name; ei_child = c.Xnf.Cache.ni_name;
    ei_parent_node = p; ei_child_node = c; ei_attr_schema = Schema.make [];
    ei_conns = Xnf.Cache.make_conns ~attrs:false (); ei_adj = None;
    ei_upd = Xnf.Semantic.Upd_readonly "test" }

let nav_cache nodes edges =
  { Xnf.Cache.c_def = Xnf.Co_schema.empty;
    c_nodes = List.map (fun (ni : Xnf.Cache.node_inst) -> (ni.Xnf.Cache.ni_name, ni)) nodes;
    c_edges = List.map (fun (ei : Xnf.Cache.edge_inst) -> (ei.Xnf.Cache.ei_name, ei)) edges;
    c_base_versions = [] }

(* the documented contract, by brute force over the connection arrays:
   one far end per live connection from [pos] to a live tuple, in
   ascending connection id order *)
let brute ei ~forward pos =
  let far_node =
    if forward then ei.Xnf.Cache.ei_child_node else ei.Xnf.Cache.ei_parent_node
  in
  List.filter_map
    (fun i ->
      let p = Xnf.Cache.conn_parent_at ei i and c = Xnf.Cache.conn_child_at ei i in
      let near, far = if forward then (p, c) else (c, p) in
      if
        near = pos && Xnf.Cache.conn_live_at ei i
        && (Xnf.Cache.tuple far_node far).Xnf.Cache.t_live
      then Some far
      else None)
    (List.init (Xnf.Cache.conn_count ei) Fun.id)

type nav_case = {
  nc_par : int;  (** parent tuples at build *)
  nc_chi : int;  (** child tuples at build; 0 = a cyclic edge on the parent node *)
  nc_conns : (int * int) list;  (** present when the adjacency is built *)
  nc_dead : int list;  (** connection ids / tuple positions to tombstone (taken modulo) *)
  nc_grow : int;  (** tuples appended to each node after the first navigation *)
  nc_over : (int * int) list;  (** added by [add_conn] after the first navigation *)
}

let show_nav_case c =
  let pairs l = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l) in
  Printf.sprintf "par=%d chi=%d conns=[%s] dead=[%s] grow=%d over=[%s]" c.nc_par c.nc_chi
    (pairs c.nc_conns)
    (String.concat ";" (List.map string_of_int c.nc_dead))
    c.nc_grow (pairs c.nc_over)

let arb_nav_case =
  let open QCheck.Gen in
  let conn = pair (int_range 0 7) (int_range 0 7) in
  QCheck.make ~print:show_nav_case
    (map
       (fun ((nc_par, nc_chi, nc_grow), (nc_conns, nc_dead, nc_over)) ->
         { nc_par; nc_chi; nc_conns; nc_dead; nc_grow; nc_over })
       (pair
          (triple (int_range 1 5) (int_range 0 5) (int_range 0 2))
          (triple (list_size (int_range 0 20) conn)
             (list_size (int_range 0 8) (int_range 0 40))
             (list_size (int_range 0 8) conn))))

(* build the case's instance, navigating once in between so the later
   connections land in the overflow lists; tombstones hit connections
   and tuples on both sides of the first navigation *)
let build_nav_case c =
  let pn = nav_node "p" c.nc_par in
  let cn = if c.nc_chi = 0 then pn else nav_node "c" c.nc_chi in
  let ei = nav_edge "e" pn cn in
  let cache = nav_cache (if pn == cn then [ pn ] else [ pn; cn ]) [ ei ] in
  let size (ni : Xnf.Cache.node_inst) = Vec.length ni.Xnf.Cache.ni_tuples in
  let connect conns =
    List.iter
      (fun (a, b) ->
        ignore
          (Xnf.Cache.add_conn ei ~parent:(a mod size pn) ~child:(b mod size cn) ~attrs:[||]))
      conns
  in
  let tombstone dead =
    List.iteri
      (fun i d ->
        match i mod 3 with
        | 0 when Xnf.Cache.conn_count ei > 0 ->
          Xnf.Cache.set_conn_live ei (d mod Xnf.Cache.conn_count ei) false
        | 1 -> (Xnf.Cache.tuple pn (d mod size pn)).Xnf.Cache.t_live <- false
        | _ -> (Xnf.Cache.tuple cn (d mod size cn)).Xnf.Cache.t_live <- false)
      dead
  in
  let half = List.length c.nc_dead / 2 in
  connect c.nc_conns;
  tombstone (List.filteri (fun i _ -> i < half) c.nc_dead);
  ignore (Xnf.Cache.children cache ei 0);
  for _ = 1 to c.nc_grow do
    ignore (Xnf.Cache.add_tuple pn ~rowid:(-1) [| Dict.encode (Value.Int 99) |]);
    if not (pn == cn) then ignore (Xnf.Cache.add_tuple cn ~rowid:(-1) [| Dict.encode (Value.Int 99) |])
  done;
  connect c.nc_over;
  tombstone (List.filteri (fun i _ -> i >= half) c.nc_dead);
  (cache, ei)

let positions (ni : Xnf.Cache.node_inst) = List.init (Vec.length ni.Xnf.Cache.ni_tuples) Fun.id

let cursor_positions c = List.map (fun t -> t.Xnf.Cache.t_pos) (Xnf.Cursor.to_list c)

(* a dependent cursor over [ei] from every live tuple of [start] *)
let dependent_matches cache ei ~forward =
  let start = if forward then ei.Xnf.Cache.ei_parent else ei.Xnf.Cache.ei_child in
  let outer = Xnf.Cursor.open_independent cache start in
  let dep = Xnf.Cursor.open_dependent ~parent:outer (Xnf.Cursor.via "e") in
  let rec go () =
    match Xnf.Cursor.next outer with
    | None -> true
    | Some t ->
      cursor_positions dep = List.sort_uniq Int.compare (brute ei ~forward t.Xnf.Cache.t_pos)
      && go ()
  in
  go ()

let prop_nav_model =
  QCheck.Test.make ~name:"children/parents = brute-force scan; dependent cursors = its sort_uniq"
    ~count:300 arb_nav_case (fun c ->
      let cache, ei = build_nav_case c in
      List.for_all
        (fun pos -> Xnf.Cache.children cache ei pos = brute ei ~forward:true pos)
        (positions ei.Xnf.Cache.ei_parent_node)
      && List.for_all
           (fun pos -> Xnf.Cache.parents cache ei pos = brute ei ~forward:false pos)
           (positions ei.Xnf.Cache.ei_child_node)
      && dependent_matches cache ei ~forward:true
      && (ei.Xnf.Cache.ei_parent_node == ei.Xnf.Cache.ei_child_node
         || dependent_matches cache ei ~forward:false))

(* the gather allocates its result and nothing else: three words (one
   cons cell) per live hit *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_nav_allocates_only_result () =
  let pn = nav_node "p" 3 and cn = nav_node "c" 8 in
  let ei = nav_edge "e" pn cn in
  let cache = nav_cache [ pn; cn ] [ ei ] in
  List.iter
    (fun (a, b) -> ignore (Xnf.Cache.add_conn ei ~parent:a ~child:b ~attrs:[||]))
    [ (0, 1); (0, 2); (0, 3); (0, 3); (0, 4); (0, 5); (1, 6); (0, 7) ];
  Xnf.Cache.set_conn_live ei 4 false;
  (Xnf.Cache.tuple cn 5).Xnf.Cache.t_live <- false;
  Alcotest.(check (list int)) "live hits, id order, duplicates kept" [ 1; 2; 3; 3; 7 ]
    (Xnf.Cache.children cache ei 0);
  let overhead = minor_words (fun () -> []) in
  let words f = minor_words f -. overhead in
  Alcotest.(check (float 0.)) "children: 5 hits, 5 cells" 15. (words (fun () -> Xnf.Cache.children cache ei 0));
  Alcotest.(check (float 0.)) "parents: 2 hits, 2 cells" 6. (words (fun () -> Xnf.Cache.parents cache ei 3));
  Alcotest.(check (float 0.)) "a miss allocates nothing" 0. (words (fun () -> Xnf.Cache.children cache ei 2))

(* key index chains: newest live position first, tombstones skipped, and
   two key ids that differ only in the sign bit (Int -1 and Int (2^60-1)
   share a chain head) told apart *)
let test_key_index_chains () =
  let far = (1 lsl 60) - 1 in
  let ni = Xnf.Cache.make_node ~schema:nav_schema ~upd:None "p" in
  List.iter
    (fun v -> ignore (Xnf.Cache.add_tuple ni ~rowid:(-1) [| Dict.encode (Value.Int v) |]))
    [ -1; far; -1; 5 ];
  let cache = nav_cache [ ni ] [] in
  let ki = Xnf.Cache.build_key_index cache ~node:"p" ~col:"k" in
  let lookup v = Xnf.Cache.lookup_key cache ki v in
  Alcotest.(check (list int)) "-1: newest first" [ 2; 0 ] (lookup (Value.Int (-1)));
  Alcotest.(check (list int)) "2^60-1 on the same chain head" [ 1 ] (lookup (Value.Int far));
  Alcotest.(check (option int)) "integral float" (Some 2)
    (Xnf.Cache.lookup_key_one cache ki (Value.Float (-1.)));
  (Xnf.Cache.tuple ni 2).Xnf.Cache.t_live <- false;
  Alcotest.(check (list int)) "tombstone skipped" [ 0 ] (lookup (Value.Int (-1)));
  Alcotest.(check (option int)) "one skips it too" (Some 0)
    (Xnf.Cache.lookup_key_one cache ki (Value.Int (-1)));
  Alcotest.(check (list int)) "absent" [] (lookup (Value.Int 6))

let test_path_step_foreign_edge () =
  let a = nav_node "a" 2 and b = nav_node "b" 2 and d = nav_node "d" 2 in
  let ei = nav_edge "e" a b in
  ignore (Xnf.Cache.add_conn ei ~parent:0 ~child:1 ~attrs:[||]);
  let cache = nav_cache [ a; b; d ] [ ei ] in
  let env = [ ("v", { Xnf.Path.b_node = "d"; b_pos = 0 }) ] in
  match
    Xnf.Path.eval_path cache env { Xnf.Xnf_ast.p_start = "v"; p_steps = [ Xnf.Xnf_ast.Step_edge "e" ] }
  with
  | _ -> Alcotest.fail "expected Cache_error for an edge not involving d"
  | exception Xnf.Cache.Cache_error _ -> ()

let suite seed =
  [ Alcotest.test_case "key index" `Quick test_key_index;
    Alcotest.test_case "key index errors" `Quick test_key_index_errors;
    Alcotest.test_case "ordered cursor" `Quick test_ordered_cursor;
    Alcotest.test_case "ordered cursor unknown column" `Quick test_ordered_cursor_unknown_column;
    Alcotest.test_case "materialized: fresh hits" `Quick test_materialized_serves_fresh;
    Alcotest.test_case "materialized: reload on change" `Quick test_materialized_reloads_on_change;
    Alcotest.test_case "materialized: own writes stay fresh" `Quick
      test_materialized_own_writes_stay_fresh;
    Alcotest.test_case "materialized: invalidate and errors" `Quick
      test_materialized_invalidate_and_errors;
    Alcotest.test_case "rootless projected instance" `Quick test_recompute_reachability_rootless;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed; 300 |]) prop_nav_model;
    Alcotest.test_case "navigation allocates only its result" `Quick
      test_nav_allocates_only_result;
    Alcotest.test_case "path step across a foreign edge" `Quick test_path_step_foreign_edge;
    Alcotest.test_case "key index chains" `Quick test_key_index_chains ]
