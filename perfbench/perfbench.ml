(* The repository benchmark's command line:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--scale full|tiny]

   Drives the workload in a closed loop from one thread, in S / epoch_s
   epochs of a fixed number of ops, each on a freshly set-up database
   ([Harness.workload]). Every
   set-up is timed; setup_s is the median over at least three of them and
   at least a second of set-up time. Times are taken on the process's CPU
   clock and scaled by the host-speed probe ([Harness.run_ops],
   [Harness.Probe]); untraced runs also print them unscaled ("unscaled"
   lines). With
   --trace 0 it prints the end-to-end metrics; with --trace 1 it
   alternates untraced and traced blocks of ops (the untraced ones give
   the baseline throughput the tracing overhead is measured against), and
   prints the per-layer metrics,
   a per-op-kind table of layer self times, and writes the recorded spans
   under perfbench/out/. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module H = Harness

let workloads = [ Ws_extract.workload; Oo1_nav.workload; Org_edit.workload ]

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }
let ratio a b = if b = 0. then 0. else a /. b

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- end-to-end metrics ---- *)

(* [end_to_end ~lat ~busy ~setup_s ~heap_words r]: [lat] are the op times
   per kind, [busy] those of every attempted op. *)
let end_to_end ~lat ~busy ~setup_s ~heap_words (r : H.result) =
  let q k p unit = H.Samples.quantile lat.(H.kind_index k) p /. unit in
  let attempted = H.total r.H.attempted and failed = H.total r.H.failed in
  [ m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (ratio (float_of_int (attempted - failed)) (H.Samples.sum busy /. 1e9));
    m "fetch_p50_ms" "ms" (q H.Fetch 0.50 1e6);
    m "fetch_p99_ms" "ms" (q H.Fetch 0.99 1e6);
    m "nav_p50_us" "us" (q H.Nav 0.50 1e3);
    m "nav_p99_us" "us" (q H.Nav 0.99 1e3);
    m "save_p50_ms" "ms" (q H.Save 0.50 1e6);
    m "save_p99_ms" "ms" (q H.Save 0.99 1e6);
    m "sql_p50_ms" "ms" (q H.Sql 0.50 1e6);
    m "sql_p99_ms" "ms" (q H.Sql 0.99 1e6);
    m "ok_frac" "frac" (1. -. ratio (float_of_int failed) (float_of_int attempted));
    m "heap_peak_mb" "MB" (heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.) ]

(* ---- per-layer metrics (traced run) ---- *)

let fetch_k = H.kind_index H.Fetch
let nav_k = H.kind_index H.Nav
let save_k = H.kind_index H.Save
let sql_k = H.kind_index H.Sql
let lookup_k = H.kind_index H.Lookup

let per_layer ~untraced_ops_per_s ~traced_ops_per_s =
  let agg = Tracer.aggregate () in
  let get k name f = match Hashtbl.find_opt agg (k, name) with Some a -> f a | None -> 0. in
  let dur k name = get k name (fun a -> a.Tracer.dur) in
  let alloc k name = get k name (fun a -> a.Tracer.alloc) in
  let d = Tracer.delta in
  let ops k = float_of_int Tracer.ops.(k) in
  let all_ops = float_of_int (Array.fold_left ( + ) 0 Tracer.ops) in
  let fetches = ops fetch_k and saves = ops save_k and stmts = ops sql_k in
  let per_fetch x = ratio x fetches in
  let us_per_fetch x = per_fetch x /. 1e3 in
  let tr name = d fetch_k ("xnf.translate." ^ name) in
  let probed = tr "tuples_probed" in
  let span k name = d k ("span." ^ name) in
  let parse_f = dur fetch_k "aside:xnf_parser.parse" in
  let steps = d nav_k "xnf.cursor.steps" in
  let nav name = d nav_k name +. d lookup_k name in
  let nav_hits = nav "xnf.cache.nav_hits" +. nav "xnf.cache.key_hits" in
  let nav_all = nav_hits +. nav "xnf.cache.nav_misses" +. nav "xnf.cache.key_misses" in
  let op_wall = List.fold_left (fun a k -> a +. dur (H.kind_index k) ("op." ^ H.kind_name k)) 0. H.kinds in
  let unattributed =
    List.fold_left
      (fun a k -> a +. get (H.kind_index k) ("op." ^ H.kind_name k) (fun a -> a.Tracer.self))
      0. H.kinds
  in
  let pc = d fetch_k "xnf.plancache.hits" in
  [ m "api.self_us_per_fetch" "us"
      (us_per_fetch (dur fetch_k "api.fetch" -. span fetch_k "xnf.fetch" -. parse_f));
    m "api.plancache_hit_ratio" "ratio"
      (ratio pc (pc +. d fetch_k "xnf.plancache.misses" +. d fetch_k "xnf.plancache.invalidations"));
    m "xnf_parser.us_per_fetch" "us" (us_per_fetch parse_f);
    m "view_registry.compose_us_per_fetch" "us" (us_per_fetch (span fetch_k "semantic"));
    m "translate.compile_us_per_fetch" "us" (us_per_fetch (span fetch_k "translate"));
    m "translate.execute_us_per_fetch" "us" (us_per_fetch (span fetch_k "cache-fill"));
    m "translate.roots_us_per_fetch" "us" (us_per_fetch (span fetch_k "roots"));
    m "translate.edge_builds_us_per_fetch" "us" (us_per_fetch (span fetch_k "edge-builds"));
    m "translate.fixpoint_us_per_fetch" "us" (us_per_fetch (span fetch_k "fixpoint"));
    m "translate.connections_us_per_fetch" "us" (us_per_fetch (span fetch_k "connections"));
    m "translate.finalize_us_per_fetch" "us" (us_per_fetch (span fetch_k "finalize"));
    m "translate.alloc_bytes_per_probe" "B" (ratio (alloc fetch_k "api.fetch") probed);
    m "translate.indexed_probes_per_fetch" "count" (per_fetch (tr "indexed_probes"));
    m "translate.hash_probes_per_fetch" "count" (per_fetch (tr "hash_probes"));
    m "translate.generic_probes_per_fetch" "count" (per_fetch (tr "generic_probes"));
    m "translate.rounds_per_fetch" "count" (per_fetch (tr "rounds"));
    m "translate.queries_per_fetch" "count" (per_fetch (tr "queries"));
    m "translate.tuples_probed_per_fetch" "count" (per_fetch probed);
    m "translate.probe_yield" "ratio" (ratio (Tracer.count_get "fetch.tuples") probed);
    m "translate.build_reuse_ratio" "ratio"
      (ratio (tr "hash_build_reuses") (tr "hash_build_reuses" +. tr "hash_builds"));
    m "translate.strategy_switches" "count" (d (-1) "xnf.translate.strategy_switches");
    m "cache.decode_us_per_fetch" "us" (us_per_fetch (dur fetch_k "cache.decode"));
    m "cache.tuples_per_fetch" "count" (per_fetch (Tracer.count_get "fetch.tuples"));
    m "cache.conns_per_fetch" "count" (per_fetch (Tracer.count_get "fetch.conns"));
    m "cursor.ns_per_step" "ns" (ratio (dur nav_k "cursor.browse") steps);
    m "cache.ns_per_lookup" "ns" (ratio (dur lookup_k "cache.lookup") (Tracer.count_get "cache.lookups"));
    m "cache.ns_per_hop" "ns" (ratio (dur nav_k "cache.traverse") (Tracer.count_get "cache.hops"));
    m "cursor.alloc_bytes_per_step" "B" (ratio (alloc nav_k "cursor.browse") steps);
    m "cache.nav_hit_ratio" "ratio" (ratio nav_hits nav_all);
    m "udi.edit_us_per_save" "us" (ratio (dur save_k "udi.edit") saves /. 1e3);
    m "udi.save_us" "us" (ratio (dur save_k "udi.save") saves /. 1e3);
    m "udi.base_writes_per_save" "count" (ratio (d save_k "xnf.udi.base_writes") saves);
    m "udi.coalesce_ratio" "ratio"
      (ratio (d save_k "xnf.udi.base_writes") (Tracer.count_get "udi.edits"));
    m "udi.conflicts" "count" (d (-1) "xnf.udi.conflicts");
    m "db.parse_us_per_stmt" "us" (ratio (dur sql_k "aside:db.parse") stmts /. 1e3);
    m "db.bind_us_per_stmt" "us" (ratio (span sql_k "semantic") stmts /. 1e3);
    m "db.rewrite_us_per_stmt" "us" (ratio (span sql_k "rewrite") stmts /. 1e3);
    m "db.optimize_us_per_stmt" "us" (ratio (span sql_k "optimize") stmts /. 1e3);
    m "db.execute_us_per_stmt" "us" (ratio (span sql_k "execute") stmts /. 1e3);
    m "db.rows_per_stmt" "count" (ratio (Tracer.count_get "db.rows") stmts);
    m "wal.appends_per_save" "count" (ratio (d save_k "wal.appends") saves);
    m "wal.syncs_per_save" "count" (ratio (d save_k "wal.syncs") saves);
    m "txn.commits_per_op" "count" (ratio (d (-1) "txn.commits") all_ops);
    m "dict.entries_added_per_op" "count" (ratio (d (-1) "dict.size") all_ops);
    m "gc.minor_words_per_op" "words" (ratio (d (-1) "gc.minor_words") all_ops);
    m "gc.promoted_words_per_op" "words" (ratio (d (-1) "gc.promoted_words") all_ops);
    m "gc.major_collections_per_kop" "count" (1e3 *. ratio (d (-1) "gc.major_collections") all_ops);
    m "trace.overhead_frac" "frac" (1. -. ratio traced_ops_per_s untraced_ops_per_s);
    m "trace.unattributed_frac" "frac" (ratio unattributed op_wall) ]

(* ---- the per-op-kind layer table (traced run) ---- *)

(* Layer self times per op kind, µs per op. Benchmark spans give their
   self time; [api.fetch] and [api.exec] are split further by the engine
   span deltas, and the parse repeated aside is charged to the parser
   and subtracted from the Api remainder. The rows of a kind add up to its
   op wall time. *)
let layer_table () =
  let agg = Tracer.aggregate () in
  let get k name f = match Hashtbl.find_opt agg (k, name) with Some a -> f a | None -> 0. in
  List.concat_map
    (fun kind ->
      let k = H.kind_index kind in
      let n = float_of_int Tracer.ops.(k) in
      if n = 0. then []
      else begin
        let span name = Tracer.delta k ("span." ^ name) in
        let wall = get k ("op." ^ H.kind_name kind) (fun a -> a.Tracer.dur) in
        let self name = get k name (fun a -> a.Tracer.self) in
        let aside name = get k ("aside:" ^ name) (fun a -> a.Tracer.dur) in
        let bench =
          Hashtbl.fold
            (fun (k', name) _ acc ->
              if k' = k && not (String.starts_with ~prefix:"op." name || String.starts_with ~prefix:"aside:" name)
              then name :: acc
              else acc)
            agg []
          |> List.sort compare
        in
        let rows =
          List.concat_map
            (fun name ->
              match name with
              | "api.fetch" ->
                let x = span "xnf.fetch" and p = aside "xnf_parser.parse" in
                let fill = span "cache-fill" in
                [ ("api (self)", self name -. x -. p); ("xnf_parser (aside)", p);
                  ("view_registry.compose", span "semantic"); ("translate.compile", span "translate");
                  ("translate.roots", span "roots"); ("translate.edge_builds", span "edge-builds");
                  ("translate.fixpoint", span "fixpoint"); ("translate.connections", span "connections");
                  ( "translate.execute (other)",
                    fill -. span "roots" -. span "edge-builds" -. span "fixpoint" -. span "connections" );
                  ("translate.finalize", span "finalize");
                  ( "xnf.fetch (other: take, glue)",
                    x -. span "semantic" -. span "translate" -. fill -. span "finalize" ) ]
              | "api.exec" ->
                let q = span "sql.query" and p = aside "db.parse" in
                [ ("api+db (self, incl. unspanned DML)", self name -. q -. p); ("db.parse (aside)", p);
                  ("db.bind", span "semantic"); ("db.rewrite", span "rewrite");
                  ("db.optimize", span "optimize"); ("db.execute", span "execute");
                  ( "sql.query (other)",
                    q -. span "semantic" -. span "rewrite" -. span "optimize" -. span "execute" ) ]
              | name -> [ (name, self name) ])
            bench
        in
        let unattributed = get k ("op." ^ H.kind_name kind) (fun a -> a.Tracer.self) in
        List.map
          (fun (layer, ns) -> (H.kind_name kind, layer, ns /. n /. 1e3, ratio ns wall))
          (rows @ [ ("unattributed", unattributed) ])
      end)
    H.kinds

(* ---- output ---- *)

let json_num v =
  if not (Float.is_finite v) then invalid_arg "json_num: not a finite number"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* a traced run alternates untraced and traced blocks of ops, this many
   per epoch *)
let trace_blocks = 20

(* a run stops starting epochs after this long, so that it ends within
   three minutes on a host several times slower than expected *)
let max_measure_s = 100.

(* where a traced run writes its spans, relative to the checkout *)
let out_dir = "perfbench/out"

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload ws_extract|oo1_nav|org_edit --seed N --seconds S --trace 0|1 \
     [--scale full|tiny]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let scale = ref H.Full in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--scale" :: "full" :: rest -> scale := H.Full; parse rest
    | "--scale" :: "tiny" :: rest -> scale := H.Tiny; parse rest
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.H.name = !workload) workloads with
    | Some w -> w
    | None -> prerr_endline ("unknown workload " ^ !workload); usage ()
  in
  let env name = Option.value (Sys.getenv_opt name) ~default:"unknown" in
  Printf.printf "workload %s seed %d seconds %g trace %d scale %s\n" w.H.name !seed !seconds !trace
    (match !scale with H.Full -> "full" | H.Tiny -> "tiny");
  Printf.printf "commit %s ocaml %s nproc %s\n%!" (env "PERFBENCH_COMMIT") Sys.ocaml_version
    (env "PERFBENCH_NPROC");
  (* Every epoch sets the workload up afresh, on a database of its own
     drawn from the run's seed, so that one run covers many databases and
     its figures do not hang on one draw. Each set-up is timed and starts
     from a compacted heap with the previous instance dropped. *)
  let epoch_seed e = (!seed * 1_000_003) + (2 * e) in
  let setup_times = ref [] in
  let timed_setup () =
    Gc.compact ();
    let data_seed = epoch_seed (List.length !setup_times) in
    let b0 = H.blocked () and t0 = H.now_ns () and c0 = H.cpu_ns () in
    let mk = w.H.setup ~scale:!scale ~seed:data_seed in
    let dc = H.cpu_ns () -. c0 and dt = H.now_ns () -. t0 in
    let d = if H.blocked () = b0 then dc else Float.max dc dt in
    setup_times := (d /. 1e9) :: !setup_times;
    mk
  in
  (* A run is [seconds / epoch_s] epochs, so that the ops it attempts, and
     the failures of the known defect among them, are the same whatever
     the speed of the host and the engine; a run stops early only once
     [max_measure_s] have passed. In a traced run, blocks of untraced and
     traced ops alternate inside each epoch, so the untraced blocks give a
     baseline throughput taken on the same states as the traced ones. *)
  let r = H.new_result () and base = H.new_result () in
  let start = H.now_ns () in
  let epochs = max 1 (int_of_float (Float.round (!seconds /. w.H.epoch_s))) in
  (* the largest major heap each epoch reached *)
  let heaps = ref [] in
  let epoch = ref 0 in
  while !epoch < epochs && (!epoch = 0 || H.now_ns () -. start < max_measure_s *. 1e9) do
    let mk = timed_setup () in
    let inst = mk ~ops_seed:(epoch_seed !epoch + 1) in
    Gc.compact ();
    let heap =
      if !trace = 0 then H.run_ops ~n:w.H.epoch_ops inst r
      else begin
        let block = max 1 (w.H.epoch_ops / trace_blocks) in
        let left = ref w.H.epoch_ops and heap = ref 0 in
        while !left > 0 do
          let n = min block !left in
          let traced = !left / block mod 2 = 1 in
          Tracer.on := traced;
          heap := max !heap (H.run_ops ~n inst (if traced then r else base));
          Tracer.on := false;
          left := !left - n
        done;
        !heap
      end
    in
    heaps := float_of_int heap :: !heaps;
    incr epoch
  done;
  let measured_s = (H.now_ns () -. start) /. 1e9 in
  (* at least three set-ups, and at least a second of set-up time (at most
     41 set-ups), go into the median *)
  while
    let n = List.length !setup_times in
    n < 3 || (n < 41 && List.fold_left ( +. ) 0. !setup_times < 1.)
  do
    let (_ : ops_seed:int -> H.instance) = timed_setup () in
    ()
  done;
  let probe = H.Samples.quantile H.Probe.samples 0.5 in
  Printf.printf
    "epochs %d of %d (%d ops each) in %.1f s, set-ups %d, probe median %.0f ns (reference %.0f)\n"
    !epoch epochs w.H.epoch_ops measured_s (List.length !setup_times) probe H.Probe.reference_ns;
  let heap_words = median !heaps in
  let metrics =
    if !trace = 0 then begin
      (* a kind without a successful op has no percentiles to report *)
      List.iter
        (fun k ->
          let i = H.kind_index k in
          if r.H.lat.(i).H.Samples.n = 0 then begin
            Printf.eprintf "perfbench: no %s op succeeded (%d attempted, first error: %s)\n"
              (H.kind_name k) r.H.attempted.(i)
              (Option.value r.H.first_error.(i) ~default:"none");
            exit 1
          end)
        H.timed_kinds;
      let setup_s = median !setup_times in
      List.iter
        (fun x -> Printf.printf "unscaled %s %s %s\n" x.m_name (json_num x.m_value) x.m_unit)
        (end_to_end ~lat:r.H.lat ~busy:r.H.busy ~setup_s ~heap_words r);
      (* set-ups run between epochs, so they scale by the run's median
         probe *)
      let scale = H.Samples.map H.Probe.scale in
      end_to_end ~lat:(Array.map scale r.H.lat) ~busy:(scale r.H.busy)
        ~setup_s:(setup_s *. H.Probe.reference_ns /. probe)
        ~heap_words r
    end
    else begin
      (* untraced and traced blocks interleave, so unscaled times compare *)
      let ops_per_s res =
        ratio
          (float_of_int (H.total res.H.attempted - H.total res.H.failed))
          (H.Samples.sum res.H.busy /. 1e9)
      in
      let ms = per_layer ~untraced_ops_per_s:(ops_per_s base) ~traced_ops_per_s:(ops_per_s r) in
      (* the untraced blocks' ops count as attempted, and their failures
         as failed, too *)
      Array.iteri
        (fun i n ->
          r.H.attempted.(i) <- r.H.attempted.(i) + n;
          r.H.failed.(i) <- r.H.failed.(i) + base.H.failed.(i);
          if r.H.first_error.(i) = None then r.H.first_error.(i) <- base.H.first_error.(i))
        base.H.attempted;
      r.H.unexpected <- r.H.unexpected + base.H.unexpected;
      r.H.blocked_ops <- r.H.blocked_ops + base.H.blocked_ops;
      Printf.printf "layer self time per op (kind, layer, us/op, share of op wall):\n";
      List.iter
        (fun (kind, layer, us, share) ->
          Printf.printf "  %-5s %-36s %12.3f %7.1f%%\n" kind layer us (100. *. share))
        (layer_table ());
      (try
         if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
         let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.tsv" w.H.name !seed) in
         Tracer.write_spans path ~kind_name:(fun k -> H.kind_name (List.nth H.kinds k));
         Printf.printf "spans written to %s\n" path
       with Sys_error e -> Printf.printf "spans not written: %s\n" e);
      ms
    end
  in
  let attempted = H.total r.H.attempted and failed = H.total r.H.failed in
  List.iter (fun x -> Printf.printf "metric %s %s %s\n" x.m_name (json_num x.m_value) x.m_unit) metrics;
  let samples k = r.H.lat.(H.kind_index k).H.Samples.n in
  let run_kinds = List.filter (fun k -> r.H.attempted.(H.kind_index k) > 0) H.kinds in
  List.iter
    (fun k ->
      let i = H.kind_index k in
      Printf.printf "ops %-5s attempted %d failed %d samples %d%s\n" (H.kind_name k) r.H.attempted.(i)
        r.H.failed.(i) (samples k)
        (match r.H.first_error.(i) with Some e -> " first error: " ^ e | None -> ""))
    run_kinds;
  let kinds_json =
    String.concat ", "
      (List.map
         (fun k ->
           let i = H.kind_index k in
           Printf.sprintf "%s: {\"attempted\": %d, \"failed\": %d, \"samples\": %d, \"first_error\": %s}"
             (json_str (H.kind_name k)) r.H.attempted.(i) r.H.failed.(i) (samples k)
             (match r.H.first_error.(i) with Some e -> json_str e | None -> "null"))
         run_kinds)
  in
  Printf.printf
    "DETAIL {\"workload\": %s, \"seed\": %d, \"commit\": %s, \"ocaml\": %s, \"nproc\": %s, \
     \"scale\": %s, \"epochs\": %d, \"unexpected_failures\": %d, \"blocked_ops\": %d, \
     \"kinds\": {%s}}\n"
    (json_str w.H.name) !seed (json_str (env "PERFBENCH_COMMIT")) (json_str Sys.ocaml_version)
    (json_str (env "PERFBENCH_NPROC"))
    (json_str (match !scale with H.Full -> "full" | H.Tiny -> "tiny"))
    !epoch r.H.unexpected r.H.blocked_ops kinds_json;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.H.unexpected = 0 && attempted > 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str x.m_name) (json_num x.m_value)
              (json_str x.m_unit))
          metrics))
