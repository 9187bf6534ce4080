(* XNF cursors over the cache (§3.7, §4.2).

   Independent cursors enumerate all live tuples of a node. Dependent
   cursors are bound to another cursor through a relationship or a longer
   path: they enumerate only the tuples reachable from the parent cursor's
   current tuple, and their enumeration is recomputed whenever the parent
   moves. Cursor steps are pure in-memory adjacency walks — no query, no
   inter-process call — which is where the orders-of-magnitude browsing
   speedup over the SQL interface comes from (E1/E2). *)

open Xnf_ast

exception Cursor_error of string

let err fmt = Fmt.kstr (fun s -> raise (Cursor_error s)) fmt

(* browsing activity: [opens] per cursor opened, [steps] per next-call,
   [expansions] per dependent re-enumeration after a parent move *)
let m_opens = Obs.Metrics.counter "xnf.cursor.opens"
let m_steps = Obs.Metrics.counter "xnf.cursor.steps"
let m_expansions = Obs.Metrics.counter "xnf.cursor.expansions"

type kind =
  | Independent of { ind_order : (string * [ `Asc | `Desc ]) option }
  | Dependent of { dep_parent : t; dep_path : step list; mutable dep_parent_pos : int option }

and t = {
  cur_cache : Cache.t;
  cur_ni : Cache.node_inst;  (** node enumerated by this cursor, resolved at open *)
  mutable cur_positions : int list;  (** remaining enumeration *)
  mutable cur_current : int option;  (** position of the current tuple *)
  cur_kind : kind;
}

(* the node a path lands on, resolved statically *)
let target_node cache start steps =
  List.fold_left
    (fun current s ->
      match s with
      | Step_node { sn_node; _ } -> String.lowercase_ascii sn_node
      | Step_edge name -> begin
        match Cache.edge_opt cache name with
        | Some ei ->
          if String.equal current ei.Cache.ei_parent then ei.Cache.ei_child
          else if String.equal current ei.Cache.ei_child then ei.Cache.ei_parent
          else err "relationship %s does not involve %s" name current
        | None -> begin
          match Cache.node_opt cache name with
          | Some _ -> String.lowercase_ascii name
          | None -> err "unknown relationship or component %s" name
        end
      end)
    start steps

(* the live positions of [ni] in one pass, in position order or stably
   sorted by a column *)
let enumerate (ni : Cache.node_inst) order =
  let tuples = ni.Cache.ni_tuples in
  let positions = ref [] in
  for pos = Relational.Vec.length tuples - 1 downto 0 do
    if (Relational.Vec.get tuples pos).Cache.t_live then positions := pos :: !positions
  done;
  match order with
  | None -> !positions
  | Some (col, dir) ->
    let ci =
      match Relational.Schema.find_opt ni.Cache.ni_schema col with
      | Some i -> i
      | None -> err "no column %s in component %s" col ni.Cache.ni_name
    in
    let cmp a b =
      let c =
        Relational.Value.compare_total
          (Cache.col (Cache.tuple ni a) ci)
          (Cache.col (Cache.tuple ni b) ci)
      in
      match dir with `Asc -> c | `Desc -> -c
    in
    List.stable_sort cmp !positions

(** [open_independent ?order cache node] opens a cursor over all live
    tuples of [node]. [order] optionally sorts the enumeration by a column
    ([`Asc] / [`Desc]); the default is cache position order. *)
let open_independent ?order cache node =
  Obs.Metrics.incr m_opens;
  let ni = Cache.node cache node in
  { cur_cache = cache; cur_ni = ni; cur_positions = enumerate ni order; cur_current = None;
    cur_kind = Independent { ind_order = order } }

(** [open_dependent ~parent path] opens a cursor bound to [parent] through
    [path] (a list of steps, typically a single relationship). The cursor
    enumerates tuples reachable from the parent's current tuple; it resets
    automatically when the parent moves. *)
let open_dependent ~parent (path : step list) =
  Obs.Metrics.incr m_opens;
  if path = [] then err "dependent cursor needs a non-empty path";
  let node = target_node parent.cur_cache parent.cur_ni.Cache.ni_name path in
  let ni =
    match Cache.node_opt parent.cur_cache node with
    | Some ni -> ni
    | None -> err "unknown component %s" node
  in
  { cur_cache = parent.cur_cache; cur_ni = ni; cur_positions = [];
    cur_current = None;
    cur_kind = Dependent { dep_parent = parent; dep_path = path; dep_parent_pos = None } }

(** [via edge] is the single-step path crossing [edge], for the common
    dependent-cursor case. *)
let via edge = [ Step_edge edge ]

let refresh_dependent c =
  match c.cur_kind with
  | Independent _ -> ()
  | Dependent d -> begin
    let ppos = d.dep_parent.cur_current in
    if ppos <> d.dep_parent_pos then begin
      d.dep_parent_pos <- ppos;
      c.cur_current <- None;
      match ppos with
      | None -> c.cur_positions <- []
      | Some pos ->
        Obs.Metrics.incr m_expansions;
        let env =
          [ ("__cursor", { Path.b_node = d.dep_parent.cur_ni.Cache.ni_name; b_pos = pos }) ]
        in
        let _, positions =
          Path.eval_path c.cur_cache env { p_start = "__cursor"; p_steps = d.dep_path }
        in
        c.cur_positions <- positions
    end
  end

(** [next c] advances to the next live tuple and returns it; [None] at end
    of enumeration. A dependent cursor whose parent is unpositioned yields
    [None]. *)
let rec next c =
  Obs.Metrics.incr m_steps;
  refresh_dependent c;
  match c.cur_positions with
  | [] ->
    c.cur_current <- None;
    None
  | pos :: rest ->
    c.cur_positions <- rest;
    let t = Cache.tuple c.cur_ni pos in
    if t.Cache.t_live then begin
      c.cur_current <- Some pos;
      Some t
    end
    else next c

(** [current c] is the tuple the cursor is positioned on. *)
let current c =
  match c.cur_current with
  | None -> None
  | Some pos ->
    let t = Cache.tuple c.cur_ni pos in
    if t.Cache.t_live then Some t else None

(** [reset c] rewinds the cursor to before the first tuple. *)
let reset c =
  c.cur_current <- None;
  match c.cur_kind with
  | Independent { ind_order } -> c.cur_positions <- enumerate c.cur_ni ind_order
  | Dependent d ->
    (* force recomputation from the parent's current position *)
    d.dep_parent_pos <- None;
    c.cur_positions <- []

(** [node_name c] is the node this cursor ranges over. *)
let node_name c = c.cur_ni.Cache.ni_name

(** [iter f c] resets [c] and applies [f] to every enumerated tuple. *)
let iter f c =
  reset c;
  let rec go () =
    match next c with
    | Some t ->
      f t;
      go ()
    | None -> ()
  in
  go ()

(** [to_list c] resets [c] and collects the enumeration. *)
let to_list c =
  let acc = ref [] in
  iter (fun t -> acc := t :: !acc) c;
  List.rev !acc
