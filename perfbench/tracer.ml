(* The traced run's instruments.

   Timed runs leave this module off: [span] and [count] are then plain
   passthroughs and no engine snapshot is taken, so the end-to-end
   metrics carry no benchmark instrumentation.

   Traced runs turn it on. Then
   - every op runs inside a root span ["op.<kind>"], and the workloads wrap
     each call into a layer in a named span ([span]); a call that a layer
     makes inside the engine but that the benchmark cannot wrap (parsing
     inside [Api.fetch_string] and [Api.exec]) is timed by repeating it on
     the same text just before the op ([aside]);
   - spans are kept in memory and written out at the end (name, start,
     end, parent, op id);
   - around each op's timed interval the engine's own instruments are read
     — the [span.*] histogram sums, the [xnf.*]/[wal.*]/[txn.*] counters,
     the dictionary size and the GC counters — and the deltas are summed
     per op kind. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let on = ref false

(* ---- benchmark spans ---- *)

type span = {
  sp_name : string;
  sp_op : int;
  sp_parent : int;  (** index of the enclosing span; -1 for roots and asides *)
  sp_t0 : float;
  mutable sp_t1 : float;
  sp_a0 : float;  (** Gc.allocated_bytes at entry *)
  mutable sp_a1 : float;
}

let spans : span array ref = ref [||]
let n_spans = ref 0
let stack : int list ref = ref []
let cur_op = ref (-1)

(* op id -> op kind index, for the per-kind aggregation *)
let op_kinds : int array ref = ref [||]

let push sp =
  if !n_spans = Array.length !spans then begin
    let b = Array.make (max 1024 (2 * !n_spans)) sp in
    Array.blit !spans 0 b 0 !n_spans;
    spans := b
  end;
  !spans.(!n_spans) <- sp;
  incr n_spans;
  !n_spans - 1

let open_span ~parent name =
  push
    { sp_name = name; sp_op = !cur_op; sp_parent = parent; sp_t0 = now_ns (); sp_t1 = nan;
      sp_a0 = Gc.allocated_bytes (); sp_a1 = nan }

let close_span i =
  let sp = !spans.(i) in
  sp.sp_a1 <- Gc.allocated_bytes ();
  sp.sp_t1 <- now_ns ()

let with_open ~parent name f =
  let i = open_span ~parent name in
  stack := i :: !stack;
  Fun.protect
    ~finally:(fun () ->
      close_span i;
      stack := List.tl !stack)
    f

(** [span name f] runs [f] as layer [name] of the current op. *)
let span name f =
  if not !on then f ()
  else with_open ~parent:(match !stack with p :: _ -> p | [] -> -1) name f

(** [aside name f] times [f] outside the op's interval, attributed to the
    op about to run; the per-layer tables subtract it from the span that
    performs the same work inside the engine. *)
let aside name f =
  if not !on then () else with_open ~parent:(-1) ("aside:" ^ name) (fun () -> ignore (f ()))

(** [quiet f] runs [f] with tracing off: per-op preparation that goes
    through instrumented helpers must not show up as a layer. *)
let quiet f =
  let was = !on in
  on := false;
  Fun.protect ~finally:(fun () -> on := was) f

(** [op_span kind f] runs the op's timed interval as root span
    ["op.<kind>"]. *)
let op_span kind f = if not !on then f () else with_open ~parent:(-1) ("op." ^ kind) f

(* ---- work counts reported by the workloads ---- *)

let counts : (string, float ref) Hashtbl.t = Hashtbl.create 16

(** [count name n] adds [n] to work count [name] (lookups, hops, edits,
    delivered tuples, ...): the denominators of the per-unit metrics. *)
let count name n =
  if !on then
    match Hashtbl.find_opt counts name with
    | Some r -> r := !r +. float_of_int n
    | None -> Hashtbl.replace counts name (ref (float_of_int n))

let count_get name = match Hashtbl.find_opt counts name with Some r -> !r | None -> 0.

(* ---- engine probes, read around each op ---- *)

let counter_names =
  [ "xnf.translate.indexed_probes"; "xnf.translate.hash_probes"; "xnf.translate.generic_probes";
    "xnf.translate.rounds"; "xnf.translate.queries"; "xnf.translate.tuples_probed";
    "xnf.translate.hash_builds"; "xnf.translate.hash_build_reuses";
    "xnf.translate.strategy_switches"; "xnf.plancache.hits"; "xnf.plancache.misses";
    "xnf.plancache.invalidations"; "xnf.cursor.steps"; "xnf.cache.nav_hits";
    "xnf.cache.nav_misses"; "xnf.cache.key_hits"; "xnf.cache.key_misses"; "xnf.udi.base_writes";
    "xnf.udi.conflicts"; "wal.appends"; "wal.syncs"; "txn.commits"; "db.rows_returned" ]

let span_names =
  [ "xnf.fetch"; "semantic"; "translate"; "cache-fill"; "edge-builds"; "roots"; "fixpoint";
    "connections"; "restrictions"; "finalize"; "udi.save"; "sql.query"; "rewrite"; "optimize";
    "execute" ]

let other_names =
  [ "dict.size"; "gc.minor_words"; "gc.promoted_words"; "gc.major_words"; "gc.major_collections" ]

let probe_names =
  Array.of_list (counter_names @ List.map (fun s -> "span." ^ s) span_names @ other_names)

let n_probes = Array.length probe_names
let counters = Array.of_list (List.map Obs.Metrics.counter counter_names)
let hists = Array.of_list (List.map (fun s -> Obs.Metrics.histogram ("span." ^ s)) span_names)
let n_counters = Array.length counters
let n_hists = Array.length hists

let snapshot dst =
  Array.iteri (fun i c -> dst.(i) <- float_of_int (Obs.Metrics.counter_value c)) counters;
  Array.iteri (fun i h -> dst.(n_counters + i) <- Obs.Metrics.hist_sum h) hists;
  let st = Gc.quick_stat () in
  let o = n_counters + n_hists in
  dst.(o) <- float_of_int (Relational.Dict.size ());
  dst.(o + 1) <- st.Gc.minor_words;
  dst.(o + 2) <- st.Gc.promoted_words;
  dst.(o + 3) <- st.Gc.major_words;
  dst.(o + 4) <- float_of_int st.Gc.major_collections

let before = Array.make n_probes 0.
let after = Array.make n_probes 0.

(* per op kind (the five of [Harness.kind]): summed engine deltas, op
   count *)
let deltas = Array.init 5 (fun _ -> Array.make n_probes 0.)
let ops = Array.make 5 0

let begin_op () =
  if !on then begin
    incr cur_op;
    if !cur_op >= Array.length !op_kinds then begin
      let b = Array.make (max 1024 (2 * !cur_op)) (-1) in
      Array.blit !op_kinds 0 b 0 (Array.length !op_kinds);
      op_kinds := b
    end
  end

let before_op () = if !on then snapshot before

let after_op k =
  if !on then begin
    snapshot after;
    let d = deltas.(k) in
    for i = 0 to n_probes - 1 do
      d.(i) <- d.(i) +. (after.(i) -. before.(i))
    done;
    ops.(k) <- ops.(k) + 1;
    !op_kinds.(!cur_op) <- k
  end

let probe_index name =
  let rec go i =
    if i = n_probes then invalid_arg ("unknown probe " ^ name)
    else if probe_names.(i) = name then i
    else go (i + 1)
  in
  go 0

(** [delta k name] is the summed delta of engine probe [name] over the ops
    of kind index [k]; [k = -1] sums every kind. *)
let delta k name =
  let i = probe_index name in
  if k >= 0 then deltas.(k).(i) else Array.fold_left (fun acc d -> acc +. d.(i)) 0. deltas

(* ---- per-kind aggregation of the benchmark spans ---- *)

type agg = { mutable dur : float; mutable self : float; mutable alloc : float; mutable n : int }

(** [aggregate ()] sums, per (op kind index, span name), duration, self
    time (duration minus child spans) and allocated bytes. Aside spans are
    keyed ["aside:<name>"]; root spans ["op.<kind>"] carry the op wall in
    [dur] and the unattributed remainder in [self]. *)
let aggregate () =
  let tbl : (int * string, agg) Hashtbl.t = Hashtbl.create 32 in
  let child = Array.make !n_spans 0. in
  for i = 0 to !n_spans - 1 do
    let sp = !spans.(i) in
    if sp.sp_parent >= 0 then
      child.(sp.sp_parent) <- child.(sp.sp_parent) +. (sp.sp_t1 -. sp.sp_t0)
  done;
  for i = 0 to !n_spans - 1 do
    let sp = !spans.(i) in
    let k = if sp.sp_op >= 0 then !op_kinds.(sp.sp_op) else -1 in
    if k >= 0 then begin
      let key = (k, sp.sp_name) in
      let a =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
          let a = { dur = 0.; self = 0.; alloc = 0.; n = 0 } in
          Hashtbl.replace tbl key a;
          a
      in
      let d = sp.sp_t1 -. sp.sp_t0 in
      a.dur <- a.dur +. d;
      a.self <- a.self +. (d -. child.(i));
      a.alloc <- a.alloc +. (sp.sp_a1 -. sp.sp_a0);
      a.n <- a.n + 1
    end
  done;
  tbl

(** [write_spans path ~kind_name] writes every recorded span, one per line:
    op id, op kind, name, parent index, start and end (ns, monotonic). *)
let write_spans path ~kind_name =
  let oc = open_out path in
  output_string oc "index\top\tkind\tname\tparent\tstart_ns\tend_ns\n";
  for i = 0 to !n_spans - 1 do
    let sp = !spans.(i) in
    let k = if sp.sp_op >= 0 then !op_kinds.(sp.sp_op) else -1 in
    Printf.fprintf oc "%d\t%d\t%s\t%s\t%d\t%.0f\t%.0f\n" i sp.sp_op
      (if k >= 0 then kind_name k else "-")
      sp.sp_name sp.sp_parent sp.sp_t0 sp.sp_t1
  done;
  close_out oc
