(* oo1_nav — Cattell's OO1 benchmark at its full size (§4.2;
   [Workload.Oo1]): 20,000 parts and 60,000 connections.

   Set-up loads the whole parts CO once (the cold fetch) and builds a
   [Cache] key index on part id. From then on the ops are OO1's, in-cache
   navigation over a cache far larger than the CPU caches (45/45/5/5):
   - lookups: 100 random part ids through the key index, reading each
     part's coordinates (op kind [Lookup], outside the nav percentiles);
   - traversals: depth-7 closure from a random part along outgoing
     connections, 3^0 + ... + 3^7 = 3280 part visits with repeats;
   - reverse traversals: depth 4 along incoming connections;
   - inserts: 10 parts and 30 connections in one deferred [Udi] session,
     then save, a light load on [Udi], [Table], [Index] and [Wal].
   OO1 has no fetch or SQL op, but every workload reports every
   end-to-end metric, so a token share of ops has each: a PREPARE'd CO of
   one part with its outgoing connections and their destinations, and the
   same part looked up through the SQL interface. *)

open Relational
module H = Harness

let n_parts_of = function H.Full -> 20000 | H.Tiny -> 400

(* one part, its outgoing connections and their destination parts *)
let part_query =
  "OUT OF Xpart AS (SELECT * FROM part WHERE id = ?), Xconn AS CONNECTION, Xdst AS PART, \
   outgoing AS (RELATE Xpart, Xconn WHERE Xpart.id = Xconn.from_id), \
   dest AS (RELATE Xconn, Xdst WHERE Xconn.to_id = Xdst.id) TAKE *"

(* op mix, per mille: lookup / traversal / reverse / insert (save) /
   fetch / sql — OO1's 45/45/5/5 over the 90% the token kinds leave *)
let mix = (405, 405, 45, 45, 50, 50)
let epoch_ops = 5000
let insert_parts = 10
let depth = 7
let rev_depth = 4

(* the SQL-interface traversal check runs on this share of traversals *)
let sql_check_share = 0.005

let instance ~n_parts db api cache ki ~ops_seed =
  let rng = Workload.Rng.create ops_seed in
  let check_rng = Workload.Rng.split rng in
  (* oracles, read through SQL: coordinates and adjacency of the parts as
     loaded (inserted parts stay unconnected in the cache — [Udi.insert]
     does not connect — so traversals never reach them) *)
  let xs = Array.make n_parts 0 and ys = Array.make n_parts 0 in
  List.iter
    (fun (r : Row.t) ->
      let i = H.int_of r.(0) in
      xs.(i) <- H.int_of r.(1);
      ys.(i) <- H.int_of r.(2))
    (Db.rows_of db "SELECT id, x, y FROM part");
  let out_adj = Array.make n_parts [] and in_adj = Array.make n_parts [] in
  List.iter
    (fun (r : Row.t) ->
      let f = H.int_of r.(0) and t = H.int_of r.(1) in
      out_adj.(f) <- t :: out_adj.(f);
      in_adj.(t) <- f :: in_adj.(t))
    (Db.rows_of db "SELECT from_id, to_id FROM connection");
  (* visits and the sum of visited ids, with repeats *)
  let rec oracle_walk adj id d =
    if d = 0 then (1, id)
    else
      List.fold_left
        (fun (n, s) next ->
          let n', s' = oracle_walk adj next (d - 1) in
          (n + n', s + s'))
        (1, id) adj.(id)
  in
  let nav = Baseline.Sql_navigator.create db in
  let rec sql_walk id d =
    if d = 0 then (1, id)
    else
      List.fold_left
        (fun (n, s) (r : Row.t) ->
          let n', s' = sql_walk (H.int_of r.(0)) (d - 1) in
          (n + n', s + s'))
        (1, id)
        (Baseline.Sql_navigator.query nav
           (Printf.sprintf "SELECT to_id FROM connection WHERE from_id = %d" id))
  in
  let parts = Xnf.Cache.node cache "xpart" in
  let outgoing = Xnf.Cache.edge cache "outgoing" and target = Xnf.Cache.edge cache "target" in
  let next_id = ref n_parts in
  (* a depth-bounded walk over the cache: [first] leads from a part to its
     connections, [second] from a connection to the next part *)
  let walk first second root d =
    let visits = ref 0 and ids = ref 0 and hops = ref 0 in
    let rec go pos d =
      incr visits;
      ids := !ids + H.int_of (Xnf.Cache.col (Xnf.Cache.tuple parts pos) 0);
      if d > 0 then begin
        incr hops;
        List.iter
          (fun conn ->
            incr hops;
            List.iter (fun p -> go p (d - 1)) (Xnf.Cache.parents cache second conn))
          (Xnf.Cache.children cache first pos)
      end
    in
    (match Xnf.Cache.lookup_key_one cache ki (Value.Int root) with
    | Some pos -> go pos d
    | None -> failwith (Printf.sprintf "part %d missing from the cache" root));
    Tracer.count "cache.hops" !hops;
    (!visits, !ids)
  in
  let lookup_op () =
    let ids = Array.init 100 (fun _ -> Workload.Rng.int rng n_parts) in
    let sx = ref 0 and sy = ref 0 and missing = ref 0 in
    { H.kind = H.Lookup; known_defect = None;
      run =
        (fun () ->
          Tracer.span "cache.lookup" (fun () ->
              Array.iter
                (fun id ->
                  match Xnf.Cache.lookup_key_one cache ki (Value.Int id) with
                  | Some pos ->
                    let t = Xnf.Cache.tuple parts pos in
                    sx := !sx + H.int_of (Xnf.Cache.col t 2);
                    sy := !sy + H.int_of (Xnf.Cache.col t 3)
                  | None -> incr missing)
                ids);
          Tracer.count "cache.lookups" (Array.length ids));
      check =
        (fun () ->
          let wx = Array.fold_left (fun a id -> a + xs.(id)) 0 ids
          and wy = Array.fold_left (fun a id -> a + ys.(id)) 0 ids in
          H.expect (!missing = 0 && !sx = wx && !sy = wy)
            "lookups: %d missing, coordinate sums %d/%d, want %d/%d" !missing !sx !sy wx wy) }
  in
  let traversal_op ~reverse () =
    let root = Workload.Rng.int rng n_parts in
    let sql_sample = (not reverse) && Workload.Rng.bool check_rng sql_check_share in
    let got = ref (0, 0) in
    { H.kind = H.Nav; known_defect = None;
      run =
        (fun () ->
          got :=
            Tracer.span "cache.traverse" (fun () ->
                if reverse then walk target outgoing root rev_depth
                else walk outgoing target root depth));
      check =
        (fun () ->
          let want =
            if reverse then oracle_walk in_adj root rev_depth else oracle_walk out_adj root depth
          in
          H.expect (!got = want) "%s traversal from %d: %d visits (id sum %d), want %d (%d)"
            (if reverse then "reverse" else "forward")
            root (fst !got) (snd !got) (fst want) (snd want);
          if sql_sample then begin
            let via_sql = sql_walk root depth in
            H.expect (!got = via_sql) "traversal from %d: %d visits, SQL interface %d" root
              (fst !got) (fst via_sql)
          end) }
  in
  let insert_op () =
    let first = !next_id in
    next_id := !next_id + insert_parts;
    let batch =
      List.map
        (fun ((row : Row.t), targets) ->
          let row = Array.copy row in
          row.(0) <- Value.Int (H.int_of row.(0) - n_parts + first);
          (row, targets))
        (Workload.Oo1.insert_batch rng ~n_parts ~count:insert_parts)
    in
    { H.kind = H.Save; known_defect = None;
      run =
        (fun () ->
          let ses =
            Tracer.span "udi.edit" (fun () ->
                let ses = Xnf.Api.session api cache in
                Xnf.Udi.set_deferred ses true;
                List.iter
                  (fun ((row : Row.t), targets) ->
                    ignore (Xnf.Udi.insert ses ~node:"xpart" row);
                    List.iter
                      (fun tgt ->
                        ignore
                          (Xnf.Udi.insert ses ~node:"xconn"
                             [| row.(0); Value.Int tgt; Value.Str "conn-type0"; Value.Int 1 |]))
                      targets)
                  batch;
                ses)
          in
          Tracer.count "udi.edits" (insert_parts * 4);
          Tracer.span "udi.save" (fun () -> Xnf.Udi.save ses));
      check =
        (fun () ->
          let count sql =
            match Db.rows_of db sql with [ [| v |] ] -> H.int_of v | _ -> -1
          in
          let np =
            count
              (Printf.sprintf "SELECT COUNT(*) FROM part WHERE id >= %d AND id < %d" first !next_id)
          and nc =
            count
              (Printf.sprintf "SELECT COUNT(*) FROM connection WHERE from_id >= %d AND from_id < %d"
                 first !next_id)
          in
          H.expect (np = insert_parts && nc = 3 * insert_parts)
            "insert of parts %d..: %d parts and %d connections read back, want %d and %d" first np
            nc insert_parts (3 * insert_parts)) }
  in
  let fetch_op () =
    let id = Workload.Rng.int rng n_parts in
    let got = ref None in
    { H.kind = H.Fetch; known_defect = None;
      run =
        (fun () ->
          let c =
            Tracer.span "api.fetch" (fun () -> Xnf.Api.execute_prepared api "part1" [ Value.Int id ])
          in
          got := Some (Tracer.span "cache.decode" (fun () -> H.decode_co c)));
      check =
        (fun () ->
          let dsts = H.sort_uniq out_adj.(id) in
          let want =
            { H.s_nodes =
                [ ("xpart", 1, id); ("xconn", List.length out_adj.(id), id * List.length out_adj.(id));
                  ("xdst", List.length dsts, H.sum dsts) ];
              s_edges = [ ("outgoing", List.length out_adj.(id)); ("dest", List.length out_adj.(id)) ] }
          in
          H.expect_summary ~want (Option.get !got)) }
  in
  let sql_op () =
    let id = Workload.Rng.int rng n_parts in
    let text = Printf.sprintf "SELECT x, y FROM part WHERE id = %d" id in
    Tracer.aside "db.parse" (fun () -> Xnf.Xnf_parser.parse_stmt text);
    let got = ref [] in
    { H.kind = H.Sql; known_defect = None;
      run =
        (fun () ->
          match Tracer.span "api.exec" (fun () -> Xnf.Api.exec api text) with
          | Xnf.Api.Sql (Db.Rows r) ->
            Tracer.count "db.rows" (List.length r.Db.rrows);
            got := r.Db.rrows
          | _ -> failwith "SELECT returned no rows");
      check =
        (fun () ->
          match !got with
          | [ [| x; y |] ] ->
            H.expect (H.int_of x = xs.(id) && H.int_of y = ys.(id)) "part %d: (%d, %d), want (%d, %d)"
              id (H.int_of x) (H.int_of y) xs.(id) ys.(id)
          | rows -> raise (H.Check_failed (Printf.sprintf "part %d: %d rows" id (List.length rows)))) }
  in
  let l, t, r, i, f, q = mix in
  let draw =
    H.deck rng ~n:epoch_ops
      [ (l, lookup_op); (t, traversal_op ~reverse:false); (r, traversal_op ~reverse:true);
        (i, insert_op); (f, fetch_op); (q, sql_op) ]
  in
  { H.next = (fun () -> draw () ()); recover = (fun () -> ()) }

let setup ~scale ~seed =
  let n_parts = n_parts_of scale in
  let db = Db.create () in
  Workload.Oo1.populate db ~seed ~n_parts;
  ignore (Db.exec db "ANALYZE");
  let api = Xnf.Api.create db in
  ignore (Xnf.Api.exec api ("PREPARE part1 AS " ^ part_query));
  let cache = Xnf.Api.fetch_string api Workload.Oo1.parts_co_query in
  let ki = Xnf.Cache.build_key_index cache ~node:"xpart" ~col:"id" in
  instance ~n_parts db api cache ki

let workload = { H.name = "oo1_nav"; epoch_ops; epoch_s = 5.; setup }
