(* The closed-loop harness shared by every workload: op kinds, the timed
   loop, output checks, and the latency samples the end-to-end metrics
   come from.

   One op is a record of two closures. [run] is the timed interval — the
   public-API calls the op measures. [check] runs afterwards, outside the
   interval, and raises [Check_failed] when an output disagrees with an
   independent derivation. The workload does its per-op preparation (drawing
   parameters, fetching the composite object an edit session works on)
   before returning the op, so preparation is never timed either. *)

open Relational

let now_ns = Tracer.now_ns

(* the process's CPU clock, ns, and the thread's voluntary context
   switches (cputime.c) *)
external cpu_ns : unit -> (float[@unboxed]) = "perfbench_cpu_ns" "perfbench_cpu_ns_unboxed"
[@@noalloc]

external blocked : unit -> (int[@untagged]) = "perfbench_blocked" "perfbench_blocked_unboxed"
[@@noalloc]

(* [Lookup] is oo1_nav's key-index lookup batch. It is navigation, but two
   orders of magnitude shorter than a traversal, so it is kept out of the
   nav percentiles: mixed in, their median would sit on the boundary of
   two latency modes. *)
type kind = Fetch | Nav | Save | Sql | Lookup

(* the kinds with latency percentiles among the end-to-end metrics *)
let timed_kinds = [ Fetch; Nav; Save; Sql ]
let kinds = timed_kinds @ [ Lookup ]
let kind_index = function Fetch -> 0 | Nav -> 1 | Save -> 2 | Sql -> 3 | Lookup -> 4

let kind_name = function
  | Fetch -> "fetch" | Nav -> "nav" | Save -> "save" | Sql -> "sql" | Lookup -> "lookup"

let n_kinds = List.length kinds

type scale = Full | Tiny

exception Check_failed of string

let expect cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check_failed s)) fmt

type op = {
  kind : kind;
  run : unit -> unit;  (** the timed interval *)
  check : unit -> unit;  (** output check, untimed *)
  known_defect : string option;
      (** text of the error a known engine defect makes [run] raise; such
          a failure is expected, any other makes the run incorrect *)
}

(** A set-up workload: [next ()] prepares and returns the next op;
    [recover ()] runs after an op raised, to drop state the failure may
    have left inconsistent (a half-edited cache, a stale model). *)
type instance = { next : unit -> op; recover : unit -> unit }

(** A workload definition. [setup] is the timed set-up (populate, ANALYZE,
    view and PREPARE definitions, initial CO load); the function it returns
    builds the check oracles, untimed, and yields an instance whose op
    stream is drawn from [ops_seed].

    A run is a sequence of epochs of [epoch_ops] ops, each on a freshly set
    up database. The engine's state grows with every write (tombstoned
    heap slots, log records), so in a run of fixed duration a faster engine
    would otherwise meet a larger state; epochs make the state every op
    sees independent of how fast the ops before it ran. A run of S seconds
    is S / [epoch_s] epochs, [epoch_s] being about an epoch's wall time at
    full scale on the 2-core Xeon VM the benchmark was written on, so the
    number of ops a run attempts, and the number the known defect fails,
    does not depend on how fast the host or the engine is. *)
type workload = {
  name : string;
  epoch_ops : int;
  epoch_s : float;
  setup : scale:scale -> seed:int -> ops_seed:int -> instance;
}

(** [deck rng ~n shares] deals the values of [shares], a list of
    [(weight, value)], in a random order drawn from [rng]: every [n]
    draws hold each value exactly [n * weight / total weight] times. An
    epoch of [n] ops thus runs each op kind exactly its share. *)
let deck rng ~n shares =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 shares in
  let a =
    Array.of_list
      (List.concat_map
         (fun (w, v) ->
           if n * w mod total <> 0 then invalid_arg "deck: a share is not a whole number of draws";
           List.init (n * w / total) (fun _ -> v))
         shares)
  in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let i = ref 0 in
  fun () ->
    let v = a.(!i mod n) in
    incr i;
    v

(* ---- small helpers used by the workloads ---- *)

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace_once: no " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let int_of v = match v with Value.Int i -> i | Value.Float f -> int_of_float f | _ -> min_int
let sum = List.fold_left ( + ) 0
let sort_uniq l = List.sort_uniq compare l

(* ---- decoding a delivered composite object ----

   Every fetch op decodes every delivered tuple (and every connection's
   attributes) the way an application reading the CO would, and keeps a
   per-component summary for the output check: live count and the sum of
   the first column, which is the key of every component in these
   workloads. *)

type summary = {
  s_nodes : (string * int * int) list;  (** name, live tuples, sum of column 0 *)
  s_edges : (string * int) list;  (** name, live connections *)
}

let decode_co (c : Xnf.Cache.t) =
  let nodes =
    List.map
      (fun (name, (ni : Xnf.Cache.node_inst)) ->
        let n = ref 0 and s = ref 0 in
        Vec.iter
          (fun (t : Xnf.Cache.tuple) ->
            if t.Xnf.Cache.t_live then begin
              let row = Xnf.Cache.row t in
              incr n;
              s := !s + int_of row.(0)
            end)
          ni.Xnf.Cache.ni_tuples;
        (String.lowercase_ascii name, !n, !s))
      c.Xnf.Cache.c_nodes
  in
  let edges =
    List.map
      (fun (name, ei) ->
        let n = ref 0 in
        for i = 0 to Xnf.Cache.conn_count ei - 1 do
          if Xnf.Cache.conn_live_at ei i then begin
            incr n;
            ignore (Sys.opaque_identity (Row.decode (Xnf.Cache.conn_attrs_at ei i)))
          end
        done;
        (String.lowercase_ascii name, !n))
      c.Xnf.Cache.c_edges
  in
  Tracer.count "fetch.tuples" (sum (List.map (fun (_, n, _) -> n) nodes));
  Tracer.count "fetch.conns" (sum (List.map snd edges));
  { s_nodes = nodes; s_edges = edges }

let pp_summary s =
  String.concat " "
    (List.map (fun (n, c, k) -> Printf.sprintf "%s=%d/%d" n c k) s.s_nodes
    @ List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) s.s_edges)

(** [expect_summary ~want got] compares node and edge summaries (order
    independent). *)
let expect_summary ~want got =
  let norm s = { s_nodes = List.sort compare s.s_nodes; s_edges = List.sort compare s.s_edges } in
  let want = norm want and got = norm got in
  expect (want = got) "delivered CO differs: want [%s] got [%s]" (pp_summary want)
    (pp_summary got)

(** [live_positions ni] lists the positions of a node's live tuples. *)
let live_positions (ni : Xnf.Cache.node_inst) =
  List.map (fun (t : Xnf.Cache.tuple) -> t.Xnf.Cache.t_pos) (Xnf.Cache.live_tuples ni)

(* ---- latency samples ---- *)

(* Values live outside the OCaml heap, so that the benchmark's own
   bookkeeping, which grows with the number of ops, stays out of
   heap_peak_mb. *)
module Samples = struct
  type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { mutable a : buf; mutable ts : buf; mutable n : int }

  let buf n : buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  let create () = { a = buf 1024; ts = buf 1024; n = 0 }

  let grow (a : buf) n =
    let b = buf (2 * n) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 n);
    b

  (** [add t ~at v] records value [v], observed at time [at] (ns). *)
  let add t ~at v =
    if t.n = Bigarray.Array1.dim t.a then begin
      t.a <- grow t.a t.n;
      t.ts <- grow t.ts t.n
    end;
    t.a.{t.n} <- v;
    t.ts.{t.n} <- at;
    t.n <- t.n + 1

  (** [map f t] applies [f ~at v] to every value. *)
  let map f t =
    let a = buf (max 1 t.n) in
    for i = 0 to t.n - 1 do
      a.{i} <- f ~at:t.ts.{i} t.a.{i}
    done;
    { t with a }

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.{i}
    done;
    !s

  (* linear interpolation between closest ranks; nan when empty *)
  let quantile t q =
    if t.n = 0 then nan
    else begin
      let s = Array.init t.n (fun i -> t.a.{i}) in
      Array.sort compare s;
      let pos = q *. float_of_int (t.n - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 < t.n then (s.(i) *. (1. -. f)) +. (s.(i + 1) *. f) else s.(i)
    end
end

(* ---- host-speed probe ----

   On shared hosts other tenants, while they run beside the benchmark,
   slow what it executes by tens of per cent for seconds to minutes at a
   time; a CPU clock does not remove that. Every [every_ns] between ops
   the benchmark therefore times a fixed probe, which calls no engine code
   and allocates nothing, and reports op times multiplied by
   [reference_ns] over the median probe time within half a second of the
   op. The probe has two parts, because the slowdown hits core-bound and
   memory-bound work differently: 20,000 dependent loads and integer
   operations over a 32 KiB table, and 3000 loads chasing a random cycle
   through an 8 MiB buffer outside the OCaml heap. Both are run over
   untimed first — the table once, the buffer by one sequential pass — so
   the timed run does not depend on what the op before it evicted from
   the caches. An engine change moves the scaled times as much as the
   unscaled ones; the host's drift is what divides out. [reference_ns] is
   about the probe's time on the 2-core Xeon VM the benchmark was written
   on, so scaled times read close to unscaled ones there. *)

module Probe = struct
  let reference_ns = 500_000.
  let every_ns = 25e6
  let table = Array.init 4096 (fun i -> ((i * 7919) + 13) land 4095)

  let kernel () =
    let acc = ref 0 and j = ref 0 in
    for i = 1 to 20_000 do
      j := Array.unsafe_get table ((!j + i) land 4095);
      acc := !acc + ((!j * 31) lxor i)
    done;
    ignore (Sys.opaque_identity !acc)

  (* one int per 64-byte line; each line holds the index of the next line
     of one random cycle through all of them *)
  let lines = 131_072

  let buffer =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (lines * 8) in
    Bigarray.Array1.fill a 0;
    let perm = Array.init lines Fun.id in
    let st = Random.State.make [| 42 |] in
    for i = lines - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    for i = 0 to lines - 1 do
      a.{perm.(i) * 8} <- perm.((i + 1) mod lines) * 8
    done;
    a

  let touch_buffer () =
    let s = ref 0 in
    for i = 0 to lines - 1 do
      s := !s + Bigarray.Array1.unsafe_get buffer (i * 8)
    done;
    ignore (Sys.opaque_identity !s)

  let at = ref 0

  let chase () =
    let p = ref !at in
    for _ = 1 to 3000 do
      p := Bigarray.Array1.unsafe_get buffer !p
    done;
    at := !p

  let samples = Samples.create ()
  let last = ref 0.

  let maybe () =
    let t0 = now_ns () in
    if t0 -. !last > every_ns then begin
      kernel ();
      touch_buffer ();
      let c0 = cpu_ns () in
      kernel ();
      chase ();
      Samples.add samples ~at:t0 (cpu_ns () -. c0);
      last := now_ns ()
    end

  (* median probe time over the samples within half a second of [t] *)
  let around t =
    let n = samples.Samples.n and ts = samples.Samples.ts in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ts.{mid} < t -. 0.5e9 then lo := mid + 1 else hi := mid
    done;
    let vs = ref [] and i = ref !lo in
    while !i < n && ts.{!i} <= t +. 0.5e9 do
      vs := samples.Samples.a.{!i} :: !vs;
      incr i
    done;
    match List.sort compare !vs with
    | [] -> reference_ns
    | l -> List.nth l (List.length l / 2)

  (** [scale ~at v] is time [v], observed at [at], at the reference speed. *)
  let scale ~at v = v *. reference_ns /. around at
end

(* ---- the timed loop ----

   An op's time is the process's CPU time over its interval: the engine is
   in memory and does no I/O, so on a shared host the wall clock adds
   mostly the time other tenants held the core. Process CPU time counts
   work on every thread and domain, so work moved off the benchmark
   thread still counts. Waiting does not show on a CPU clock, so an op
   during which the thread blocked (a voluntary context switch) is
   charged the larger of its CPU and wall-clock times, and counted. The
   reported times are then scaled by [Probe]. *)

type result = {
  lat : Samples.t array;  (** per kind, ns, successful ops only *)
  busy : Samples.t;  (** every attempted op's time *)
  attempted : int array;
  failed : int array;
  first_error : string option array;
  mutable unexpected : int;
      (** failures that are not the known defect: failed checks and other
          errors *)
  mutable blocked_ops : int;  (** ops charged their wall-clock time *)
}

let new_result () =
  { lat = Array.init n_kinds (fun _ -> Samples.create ()); attempted = Array.make n_kinds 0;
    failed = Array.make n_kinds 0; first_error = Array.make n_kinds None; unexpected = 0;
    busy = Samples.create (); blocked_ops = 0 }

let total a = Array.fold_left ( + ) 0 a

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let note_failure r (op : op) ~check msg =
  let i = kind_index op.kind in
  r.failed.(i) <- r.failed.(i) + 1;
  let known = (not check) && Option.fold ~none:false ~some:(fun sub -> contains ~sub msg) op.known_defect in
  if not known then r.unexpected <- r.unexpected + 1;
  if r.first_error.(i) = None then r.first_error.(i) <- Some ((if check then "check: " else "") ^ msg)

(** [run_ops ~n inst r] drives [inst] in a closed loop, one op at a time,
    for [n] ops, and returns the largest major heap it saw (words, sampled
    every 64 ops and at the end). *)
let run_ops ~n inst r =
  let heap = ref 0 in
  let sample_heap () = heap := max !heap (Gc.quick_stat ()).Gc.heap_words in
  for k = 1 to n do
    if k land 63 = 0 then sample_heap ();
    Probe.maybe ();
    Tracer.begin_op ();
    let op = inst.next () in
    let i = kind_index op.kind in
    r.attempted.(i) <- r.attempted.(i) + 1;
    Tracer.before_op ();
    let b0 = blocked () in
    let t0 = now_ns () in
    let c0 = cpu_ns () in
    let outcome = match Tracer.op_span (kind_name op.kind) op.run with () -> None | exception e -> Some e in
    let dc = cpu_ns () -. c0 in
    let dt = now_ns () -. t0 in
    let d =
      if blocked () = b0 then dc
      else begin
        r.blocked_ops <- r.blocked_ops + 1;
        Float.max dc dt
      end
    in
    Tracer.after_op i;
    Samples.add r.busy ~at:t0 d;
    match outcome with
    | Some e ->
      note_failure r op ~check:false (Printexc.to_string e);
      inst.recover ()
    | None -> (
      match op.check () with
      | () -> Samples.add r.lat.(i) ~at:t0 d
      | exception e ->
        note_failure r op ~check:true (match e with Check_failed m -> m | e -> Printexc.to_string e);
        inst.recover ())
  done;
  sample_heap ();
  !heap
