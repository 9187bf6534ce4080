(* ws_extract — working-set extraction from the paper's design database
   (§1, §4.3; [Workload.Design]).

   Each fetch op runs the PREPARE'd configuration CO for a random
   configuration through [Api.execute_prepared]: one configuration, its
   ~20 versions, their components and the documents they describe —
   about 200 tuples out of ~158k rows (selectivity ~10^-3). Parse and
   compile happen once at set-up, so [Translate.execute_def] and the
   delivery decode do nearly all the work.

   Extraction is the whole of the workload's traffic, but every workload
   reports every end-to-end metric, so a token share of ops (5% each) has
   each other kind. They act on the working set fetched last, as an
   engineer would after extracting it (§4.3): navigation browses it with
   dependent cursors; SQL aggregates its components with a join, the SQL
   interface's view of the same working set; an edit session checks
   changes back in, one deferred [Udi] session re-weighing the components
   of a few of its versions. *)

open Relational
module H = Harness

let scale_of = function
  | H.Full ->
    { Workload.Design.n_docs = 4000; versions_per_doc = 4; components_per_version = 8;
      n_configs = 500; docs_per_config = 20 }
  | H.Tiny ->
    { Workload.Design.n_docs = 60; versions_per_doc = 2; components_per_version = 3;
      n_configs = 12; docs_per_config = 4 }

(* the configuration CO of [Workload.Design], with the configuration id as
   a parameter slot *)
let ws_query = H.replace_once ~sub:"cfgid = 0)" ~by:"cfgid = ?)" (Workload.Design.working_set_query 0)

(* op mix, in percent: fetch / nav / sql / save *)
let mix = (85, 5, 5, 5)
let epoch_ops = 8000

(* versions whose components one edit session re-weighs *)
let edit_versions = 3

let instance ~(sc : Workload.Design.scale) db api ~ops_seed =
  let rng = Workload.Rng.create ops_seed in
  let n_versions = sc.n_docs * sc.versions_per_doc in
  let ints2 sql f = List.iter (fun (r : Row.t) -> f (H.int_of r.(0)) (H.int_of r.(1))) (Db.rows_of db sql) in
  (* the check oracles, read through SQL: per version its document and its
     components' count, key sum and weight sum (kept in step with every
     successful edit session); per configuration the versions it selects,
     once per link row *)
  let vdoc = Array.make n_versions 0 in
  ints2 "SELECT vid, vdocid FROM version" (fun v d -> vdoc.(v) <- d);
  let comp_n = Array.make n_versions 0
  and comp_ids = Array.make n_versions 0
  and comp_w = Array.make n_versions 0 in
  List.iter
    (fun (r : Row.t) ->
      let v = H.int_of r.(0) in
      comp_n.(v) <- comp_n.(v) + 1;
      comp_ids.(v) <- comp_ids.(v) + H.int_of r.(1);
      comp_w.(v) <- comp_w.(v) + H.int_of r.(2))
    (Db.rows_of db "SELECT cvid, cid, weight FROM component");
  let links = Array.make sc.n_configs [] in
  ints2 "SELECT cvcfgid, cvvid FROM configver" (fun c v -> links.(c) <- v :: links.(c));
  let over vs a = H.sum (List.map (fun v -> a.(v)) vs) in
  (* the expected working set of a configuration *)
  let expect_cfg c =
    let links = links.(c) in
    let vids = H.sort_uniq links in
    let docs = H.sort_uniq (List.map (fun v -> vdoc.(v)) vids) in
    let n_comps = over vids comp_n in
    ( { H.s_nodes =
          [ ("xcfg", 1, c); ("xver", List.length vids, H.sum vids);
            ("xcomp", n_comps, over vids comp_ids); ("xdoc", List.length docs, H.sum docs) ];
        s_edges =
          [ ("selection", List.length links); ("content", n_comps);
            ("described_by", List.length vids) ] },
      links )
  in
  let last = ref None in
  let fetch cfg =
    let c = Tracer.span "api.fetch" (fun () -> Xnf.Api.execute_prepared api "ws" [ Value.Int cfg ]) in
    let s = Tracer.span "cache.decode" (fun () -> H.decode_co c) in
    last := Some (cfg, c);
    s
  in
  let fetch_op () =
    let cfg = Workload.Rng.int rng sc.n_configs in
    let got = ref None in
    { H.kind = H.Fetch; known_defect = None;
      run = (fun () -> got := Some (fetch cfg));
      check = (fun () -> H.expect_summary ~want:(fst (expect_cfg cfg)) (Option.get !got)) }
  in
  (* the working set the minor op kinds act on: the last one fetched *)
  let current () =
    (match !last with
    | Some _ -> ()
    | None -> ignore (Tracer.quiet (fun () -> fetch (Workload.Rng.int rng sc.n_configs))));
    Option.get !last
  in
  let nav_op () =
    let cfg, c = current () in
    let weight = Schema.find (Xnf.Cache.node c "xcomp").Xnf.Cache.ni_schema "weight" in
    let n = ref 0 and w = ref 0 in
    { H.kind = H.Nav; known_defect = None;
      run =
        (fun () ->
          Tracer.span "cursor.browse" (fun () ->
              let open Xnf in
              let cc = Cursor.open_independent c "xcfg" in
              let cv = Cursor.open_dependent ~parent:cc (Cursor.via "selection") in
              let cp = Cursor.open_dependent ~parent:cv (Cursor.via "content") in
              Cursor.iter
                (fun _ ->
                  Cursor.iter
                    (fun _ ->
                      Cursor.iter
                        (fun t ->
                          incr n;
                          w := !w + H.int_of (Cache.col t weight))
                        cp)
                    cv)
                cc));
      check =
        (fun () ->
          let vids = H.sort_uniq (snd (expect_cfg cfg)) in
          let want_n = over vids comp_n and want_w = over vids comp_w in
          H.expect (!n = want_n && !w = want_w) "browse of cfg %d: %d components weighing %d, want %d / %d"
            cfg !n !w want_n want_w) }
  in
  (* the SQL interface's view of the same working set: the components of
     every version the configuration selects, counted once per selecting
     link *)
  let sql_op () =
    let cfg = fst (current ()) in
    let links = snd (expect_cfg cfg) in
    let want_n = over links comp_n and want_w = over links comp_w in
    let text =
      Printf.sprintf
        "SELECT COUNT(*), SUM(c.weight) FROM configver cv, component c \
         WHERE cv.cvcfgid = %d AND c.cvid = cv.cvvid"
        cfg
    in
    Tracer.aside "db.parse" (fun () -> Xnf.Xnf_parser.parse_stmt text);
    let got = ref [] in
    { H.kind = H.Sql; known_defect = None;
      run =
        (fun () ->
          match Tracer.span "api.exec" (fun () -> Xnf.Api.exec api text) with
          | Xnf.Api.Sql (Db.Rows r) ->
            Tracer.count "db.rows" (List.length r.Db.rrows);
            got := r.Db.rrows
          | _ -> failwith "aggregate SELECT returned no rows");
      check =
        (fun () ->
          match !got with
          | [ [| n; w |] ] ->
            H.expect (H.int_of n = want_n && H.int_of w = want_w)
              "configuration %d: count %s sum %s, want %d / %d" cfg (Value.to_string n)
              (Value.to_string w) want_n want_w
          | _ -> raise (H.Check_failed "aggregate SELECT: unexpected shape")) }
  in
  let save_op () =
    let _, c = current () in
    let xcomp = Xnf.Cache.node c "xcomp" in
    let cvid = Schema.find xcomp.Xnf.Cache.ni_schema "cvid"
    and weight = Schema.find xcomp.Xnf.Cache.ni_schema "weight" in
    let comps = Xnf.Cache.live_tuples xcomp in
    let vids = Array.of_list (H.sort_uniq (List.map (fun t -> H.int_of (Xnf.Cache.col t cvid)) comps)) in
    let picked = H.sort_uniq (List.init edit_versions (fun _ -> vids.(Workload.Rng.int rng (Array.length vids)))) in
    (* (position, version, component id, new weight) *)
    let edits =
      List.filter_map
        (fun (t : Xnf.Cache.tuple) ->
          let v = H.int_of (Xnf.Cache.col t cvid) in
          if List.mem v picked then
            Some
              ( t.Xnf.Cache.t_pos, v, H.int_of (Xnf.Cache.col t 0),
                H.int_of (Xnf.Cache.col t weight) + Workload.Rng.in_range rng 1 9 )
          else None)
        comps
    in
    { H.kind = H.Save; known_defect = None;
      run =
        (fun () ->
          let ses =
            Tracer.span "udi.edit" (fun () ->
                let ses = Xnf.Api.session api c in
                Xnf.Udi.set_deferred ses true;
                List.iter
                  (fun (pos, _, _, w) -> Xnf.Udi.update ses ~node:"xcomp" ~pos [ ("weight", Value.Int w) ])
                  edits;
                ses)
          in
          Tracer.count "udi.edits" (List.length edits);
          Tracer.span "udi.save" (fun () -> Xnf.Udi.save ses));
      check =
        (fun () ->
          List.iter
            (fun v ->
              let want =
                List.sort compare
                  (List.filter_map (fun (_, v', cid, w) -> if v' = v then Some (cid, w) else None) edits)
              in
              let got =
                List.sort compare
                  (List.map
                     (fun (r : Row.t) -> (H.int_of r.(0), H.int_of r.(1)))
                     (Db.rows_of db (Printf.sprintf "SELECT cid, weight FROM component WHERE cvid = %d" v)))
              in
              H.expect (got = want) "version %d: %d components read back, not the %d saved" v
                (List.length got) (List.length want);
              comp_w.(v) <- H.sum (List.map snd want))
            picked) }
  in
  let f, n, s, e = mix in
  let draw = H.deck rng ~n:epoch_ops [ (f, fetch_op); (n, nav_op); (s, sql_op); (e, save_op) ] in
  { H.next = (fun () -> draw () ()); recover = (fun () -> ()) }

let setup ~scale ~seed =
  let sc = scale_of scale in
  let db = Db.create () in
  Workload.Design.populate db ~seed ~scale:sc;
  ignore (Db.exec db "ANALYZE");
  let api = Xnf.Api.create db in
  ignore (Xnf.Api.exec api ("PREPARE ws AS " ^ ws_query));
  instance ~sc db api

let workload = { H.name = "ws_extract"; epoch_ops; epoch_s = 4.; setup }
