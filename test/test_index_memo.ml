(* Id-keyed hash indexes, the per-slot encode memo and the root point
   lookup: the index against a list model under random DML, lookups that
   must not grow the dictionary, memo invalidation through every write
   path, and root index reads that match the table scan. *)

open Relational

(* ---- the index against a list model ---- *)

(* column 0 is a FLOAT column (Int widens into it, so Int/Float
   cross-equal keys meet), column 1 a string column; both nullable *)
let model_schema () =
  Schema.make [ Schema.column "x" Schema.Ty_float; Schema.column "s" Schema.Ty_string ]

let x_pool =
  [| Value.Null; Value.Int 0; Value.Int 1; Value.Int 2; Value.Float 1.; Value.Float 2.;
     Value.Float 0.5; Value.Float (-0.) |]

let s_pool = [| Value.Null; Value.Str "a"; Value.Str "b"; Value.Str "c" |]

type op =
  | Insert of int * int  (** x, s pool positions *)
  | Update of int * int * int  (** slot, x, s *)
  | Delete of int
  | Restore of int  (** one of the deleted rows, by position *)
  | Install of int * int * int  (** rowid, x, s *)
  | Clear

let show_op = function
  | Insert (x, s) -> Printf.sprintf "I(%d,%d)" x s
  | Update (r, x, s) -> Printf.sprintf "U(%d,%d,%d)" r x s
  | Delete r -> Printf.sprintf "D%d" r
  | Restore i -> Printf.sprintf "R%d" i
  | Install (r, x, s) -> Printf.sprintf "N(%d,%d,%d)" r x s
  | Clear -> "C"

let gen_op =
  let open QCheck.Gen in
  let x = int_range 0 (Array.length x_pool - 1) and s = int_range 0 (Array.length s_pool - 1) in
  frequency
    [ (6, map2 (fun a b -> Insert (a, b)) x s);
      (3, map3 (fun r a b -> Update (r, a, b)) (int_range 0 30) x s);
      (3, map (fun r -> Delete r) (int_range 0 30));
      (2, map (fun i -> Restore i) (int_range 0 10));
      (2, map3 (fun r a b -> Install (r, a, b)) (int_range 0 35) x s);
      (1, return Clear) ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 0 80) gen_op)

(* model: live (rowid, row) newest index insertion first, plus the
   deleted rows a restore may bring back *)
let prop_index_model =
  QCheck.Test.make ~name:"hash index = list model under random DML" ~count:300 arb_ops
    (fun ops ->
      let t = Table.create ~name:"m" (model_schema ()) in
      let idxs =
        [ Table.add_index t ~name:"by_x" ~cols:[| 0 |] Index.Hash;
          Table.add_index t ~name:"by_s" ~cols:[| 1 |] Index.Hash;
          Table.add_index t ~name:"by_xs" ~cols:[| 0; 1 |] Index.Hash ]
      in
      let live = ref [] and dead = ref [] in
      let unlink r = live := List.filter (fun (r', _) -> r' <> r) !live in
      let row a b = [| x_pool.(a); s_pool.(b) |] in
      List.iter
        (function
          | Insert (a, b) ->
            let r = Table.insert t (row a b) in
            dead := List.filter (fun (r', _) -> r' <> r) !dead;
            live := (r, row a b) :: !live
          | Update (r, a, b) ->
            if List.mem_assoc r !live then begin
              ignore (Table.update t r (row a b));
              unlink r;
              live := (r, row a b) :: !live
            end
          | Delete r -> begin
            match Table.delete t r with
            | Some old ->
              unlink r;
              dead := (r, old) :: !dead
            | None -> ()
          end
          | Restore i -> begin
            match List.nth_opt !dead i with
            | Some (r, old) ->
              Table.restore t r old;
              dead := List.filter (fun (r', _) -> r' <> r) !dead;
              live := (r, old) :: !live
            | None -> ()
          end
          | Install (r, a, b) ->
            Table.install t r (row a b);
            unlink r;
            dead := List.filter (fun (r', _) -> r' <> r) !dead;
            live := (r, row a b) :: !live
          | Clear ->
            Table.clear t;
            live := [];
            dead := [])
        ops;
      let keys_of cols =
        match cols with
        | [| 0 |] -> List.map (fun v -> [| v |]) (Value.Float 3. :: Array.to_list x_pool)
        | [| 1 |] -> List.map (fun v -> [| v |]) (Value.Str "d" :: Array.to_list s_pool)
        | _ ->
          List.concat_map
            (fun x -> List.map (fun s -> [| x; s |]) (Array.to_list s_pool))
            (Array.to_list x_pool)
      in
      List.for_all
        (fun idx ->
          let cols = Index.cols idx in
          let lookups_ok =
            List.for_all
              (fun key ->
                let want =
                  List.filter_map
                    (fun (r, row) -> if Row.equal (Row.project row cols) key then Some r else None)
                    !live
                in
                Index.lookup idx key = want
                && List.map fst (Table.lookup_index t idx key) = want)
              (keys_of cols)
          in
          let distinct =
            List.fold_left
              (fun acc (_, row) ->
                let k = Row.project row cols in
                if List.exists (Row.equal k) acc then acc else k :: acc)
              [] !live
          in
          lookups_ok && Index.distinct_keys idx = List.length distinct)
        idxs)

(* ---- Intmap deletion against Hashtbl ---- *)

let prop_intmap_remove =
  QCheck.Test.make ~name:"Intmap set/remove = Hashtbl" ~count:200
    QCheck.(list (pair bool (int_range 0 60)))
    (fun ops ->
      let m = Intmap.create ~size:4 and h = Hashtbl.create 16 in
      List.iteri
        (fun i (add, k) ->
          (* strided keys collide in the low bits and build probe runs *)
          let k = k * 64 in
          if add then begin
            Intmap.set m k i;
            Hashtbl.replace h k i
          end
          else begin
            Intmap.remove m k;
            Hashtbl.remove h k
          end)
        ops;
      Intmap.length m = Hashtbl.length h
      && List.for_all
           (fun k ->
             let k = k * 64 in
             Intmap.get m k = Option.value ~default:Intmap.absent (Hashtbl.find_opt h k))
           (List.init 61 Fun.id))

(* ---- lookups never intern ---- *)

let test_lookup_no_intern () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE kv (k INTEGER PRIMARY KEY, name VARCHAR, w FLOAT)";
      "CREATE INDEX kv_name ON kv (name)";
      "CREATE INDEX kv_w ON kv (w)";
      "INSERT INTO kv VALUES (1, 'one', 1.5), (2, 'two', 2.0)" ];
  let t = Catalog.table (Db.catalog db) "kv" in
  let by_name = Option.get (Table.find_index t ~cols:[| 1 |]) in
  let by_w = Option.get (Table.find_index t ~cols:[| 2 |]) in
  let api = Xnf.Api.create db in
  let cache = Xnf.Api.fetch_string api "OUT OF Xkv AS kv TAKE *" in
  let ki = Xnf.Cache.build_key_index cache ~node:"xkv" ~col:"name" in
  let kw = Xnf.Cache.build_key_index cache ~node:"xkv" ~col:"w" in
  let before = Dict.size () in
  for i = 1 to 50 do
    let s = Value.Str (Printf.sprintf "missing-key-%d" i) in
    let f = Value.Float (float_of_int i +. 0.25) in
    Alcotest.(check (list int)) "index miss" [] (Index.lookup by_name [| s |]);
    Alcotest.(check (list int)) "float miss" [] (Index.lookup by_w [| f |]);
    Alcotest.(check (list int)) "cache miss" [] (Xnf.Cache.lookup_key cache ki s);
    Alcotest.(check (list int)) "cache float miss" [] (Xnf.Cache.lookup_key cache kw f)
  done;
  Alcotest.(check int) "dictionary unchanged" before (Dict.size ());
  (* an integral float finds its integer's key without being interned *)
  Alcotest.(check int) "2.0 = 2 through the index" 1
    (List.length (Table.lookup_index t by_w [| Value.Int 2 |]));
  Alcotest.(check bool) "hits still found" true
    (Xnf.Cache.lookup_key cache ki (Value.Str "two") <> []);
  Alcotest.(check int) "dictionary still unchanged" before (Dict.size ())

(* ---- the encode memo follows every write ---- *)

let org_view =
  "CREATE VIEW ORG AS OUT OF Xdept AS dept, Xemp AS emp, \
   employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *"

let setup_org ?data_dir () =
  let db = Db.create ?data_dir () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, edno INTEGER)";
      "CREATE INDEX emp_edno ON emp (edno)";
      "INSERT INTO dept VALUES (1, 'd1'), (2, 'd2')";
      "INSERT INTO emp VALUES (10, 'ann', 1), (11, 'bob', 1), (12, 'cy', 2)" ];
  let api = Xnf.Api.create db in
  ignore (Xnf.Api.exec api org_view);
  (db, api)

(* the delivered emp rows, sorted by eno *)
let emps api =
  let cache = Xnf.Api.fetch_string api "OUT OF ORG TAKE *" in
  Xnf.Cache.live_tuples (Xnf.Cache.node cache "xemp")
  |> List.map (fun tp -> Row.to_string (Xnf.Cache.row tp))
  |> List.sort compare

let test_memo_follows_writes () =
  let db, api = setup_org () in
  let check msg want = Alcotest.(check (list string)) msg want (emps api) in
  check "initial" [ "(10, ann, 1)"; "(11, bob, 1)"; "(12, cy, 2)" ];
  ignore (Db.exec db "UPDATE emp SET ename = 'anne' WHERE eno = 10");
  check "after UPDATE" [ "(10, anne, 1)"; "(11, bob, 1)"; "(12, cy, 2)" ];
  ignore (Db.exec db "DELETE FROM emp WHERE eno = 11");
  check "after DELETE" [ "(10, anne, 1)"; "(12, cy, 2)" ];
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE emp SET ename = 'zed' WHERE eno = 12");
  ignore (Db.exec db "DELETE FROM emp WHERE eno = 10");
  ignore (Db.exec db "INSERT INTO emp VALUES (13, 'dee', 2)");
  check "inside the transaction" [ "(12, zed, 2)"; "(13, dee, 2)" ];
  ignore (Db.exec db "ROLLBACK");
  check "after ROLLBACK" [ "(10, anne, 1)"; "(12, cy, 2)" ]

let test_memo_after_recovery () =
  Tmpfix.with_dir @@ fun dir ->
  let db, api = setup_org ~data_dir:dir () in
  ignore (Db.exec db "UPDATE emp SET ename = 'al' WHERE eno = 10");
  let durable = emps api in
  (* an unlogged in-memory write: recovery must discard it *)
  let t = Catalog.table (Db.catalog db) "emp" in
  let rowid, row =
    List.find (fun (_, r) -> Value.equal r.(0) (Value.Int 12)) (List.of_seq (Table.to_seq t))
  in
  ignore (Table.update t rowid [| row.(0); Value.Str "ghost"; row.(2) |]);
  Alcotest.(check bool) "unlogged write visible" true (List.mem "(12, ghost, 2)" (emps api));
  ignore (Xnf.Api.recover api);
  Alcotest.(check (list string)) "after recovery" durable (emps api)

let test_udi_edit_does_not_leak () =
  let db, api = setup_org () in
  let cache = Xnf.Api.fetch_string api "OUT OF ORG TAKE *" in
  let ni = Xnf.Cache.node cache "xemp" in
  let ann =
    List.find (fun tp -> Value.equal (Xnf.Cache.col tp 0) (Value.Int 10)) (Xnf.Cache.live_tuples ni)
  in
  let ses = Xnf.Api.session api cache in
  Xnf.Udi.set_deferred ses true;
  Xnf.Udi.update ses ~node:"xemp" ~pos:ann.Xnf.Cache.t_pos [ ("ename", Value.Str "edited") ];
  Alcotest.(check string) "edited in the session's cache" "'edited'"
    (Value.to_sql_literal (Xnf.Cache.col (Xnf.Cache.tuple ni ann.Xnf.Cache.t_pos) 1));
  Alcotest.(check (list string)) "second fetch sees the base row"
    [ "(10, ann, 1)"; "(11, bob, 1)"; "(12, cy, 2)" ] (emps api);
  let t = Catalog.table (Db.catalog db) "emp" in
  Alcotest.(check string) "memo unchanged" "(10, ann, 1)"
    (Row.to_string (Row.decode (Table.enc t ann.Xnf.Cache.t_rowid)));
  Xnf.Udi.save ses;
  Alcotest.(check bool) "saved edit delivered" true (List.mem "(10, edited, 1)" (emps api))

(* ---- root point lookup ---- *)

let test_root_point_lookup () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE part (id INTEGER PRIMARY KEY, grp INTEGER, tag VARCHAR)");
  ignore (Db.exec db "CREATE INDEX part_grp ON part (grp)");
  for i = 0 to 199 do
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO part VALUES (%d, %d, '%s')" i (i mod 7)
            (if i mod 3 = 0 then "x" else "y")))
  done;
  (* an update moves an old rowid to the head of its index chain, so
     index order (newest first) differs from rowid order *)
  ignore (Db.exec db "UPDATE part SET tag = 'x' WHERE id = 14");
  ignore (Db.exec db "DELETE FROM part WHERE id = 7");
  ignore (Db.exec db "INSERT INTO part VALUES (7, 0, 'x')");
  let t = Catalog.table (Db.catalog db) "part" in
  let touched = ref 0 in
  Table.set_touch t (Some (fun _ -> incr touched));
  let api = Xnf.Api.create db in
  let q = "OUT OF Xp AS (SELECT * FROM part WHERE grp = ? AND tag = 'x') TAKE *" in
  ignore (Xnf.Api.exec api ("PREPARE pl AS " ^ q));
  let rowids cache =
    Xnf.Cache.live_tuples (Xnf.Cache.node cache "xp") |> List.map (fun tp -> tp.Xnf.Cache.t_rowid)
  in
  let scan_order g =
    List.of_seq (Table.to_seq t)
    |> List.filter (fun (_, r) ->
           Value.equal r.(1) (Value.Int g) && Value.equal r.(2) (Value.Str "x"))
    |> List.map fst
  in
  touched := 0;
  let hits = rowids (Xnf.Api.execute_prepared api "pl" [ Value.Int 0 ]) in
  let index_touches = !touched in
  touched := 0;
  Alcotest.(check (list int)) "scan order, full predicate" (scan_order 0) hits;
  Alcotest.(check bool) "read through the index" true (index_touches < 40);
  Alcotest.(check (list int)) "a literal no row holds" []
    (rowids (Xnf.Api.execute_prepared api "pl" [ Value.Int 99 ]));
  Alcotest.(check (list int)) "an integral float key" (scan_order 3)
    (rowids (Xnf.Api.execute_prepared api "pl" [ Value.Float 3. ]))

let suite seed =
  List.mapi
    (fun i t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed; 200 + i |]) t)
    [ prop_index_model; prop_intmap_remove ]
  @ [ Alcotest.test_case "lookups never intern" `Quick test_lookup_no_intern;
      Alcotest.test_case "memo follows UPDATE, DELETE, ROLLBACK" `Quick test_memo_follows_writes;
      Alcotest.test_case "memo after WAL recovery" `Quick test_memo_after_recovery;
      Alcotest.test_case "unsaved Udi edit does not leak" `Quick test_udi_edit_does_not_leak;
      Alcotest.test_case "root point lookup" `Quick test_root_point_lookup ]
