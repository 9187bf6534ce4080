(** The XNF cache: an in-memory composite-object instance (§4.2 of the
    paper).

    A loaded CO holds, per component table, a vector of tuples (with
    base-table provenance when the node is updatable) and, per
    relationship, the connection set with adjacency in both directions —
    the paper's "virtual memory pointers", realized as integer positions.
    Connections are stored struct-of-arrays (the fetch path is
    allocation-light); adjacency is a CSR built lazily on first
    navigation. Tuples and connections are tombstoned rather than
    removed, so cursor positions and adjacency stay stable under
    manipulation operations. *)

open Relational

type tuple = {
  t_pos : int;  (** position in the node vector (stable identity) *)
  mutable t_row : Row.enc;  (** dictionary-encoded; decode via {!row}/{!col} *)
  mutable t_rowid : int;  (** provenance: base-table rowid; [-1] = none *)
  mutable t_live : bool;
  mutable t_dirty : bool;  (** modified in cache, not yet propagated *)
}

type node_inst = {
  ni_name : string;
  mutable ni_schema : Schema.t;
  ni_tuples : tuple Vec.t;
  mutable ni_upd : Semantic.node_updatability option;
  ni_by_rowid : Intmap.t;  (** base rowid -> position *)
  mutable ni_locked_cols : int list;
      (** columns used in relationship predicates: updatable only through
          connect/disconnect (§3.7) *)
}

(** Connection storage: struct-of-arrays indexed by connection id.
    [cs_attrs] has length 0 when the edge carries no attributes. *)
type conns = {
  mutable cs_parent : int array;
  mutable cs_child : int array;
  mutable cs_attrs : Row.enc array;
  mutable cs_live : Bytes.t;
  mutable cs_len : int;
}

(** A materialized view of one connection (enumeration APIs only). *)
type conn = {
  cn_idx : int;  (** connection id within its edge *)
  cn_parent : int;  (** position in the parent node *)
  cn_child : int;  (** position in the child node *)
  cn_attrs : Row.enc;  (** encoded attributes; [[||]] when the edge has none *)
}

type adj

type edge_inst = {
  ei_name : string;
  ei_parent : string;
  ei_child : string;
  ei_parent_node : node_inst;  (** direct reference: cursor steps are O(1) *)
  ei_child_node : node_inst;
  ei_attr_schema : Schema.t;
  ei_conns : conns;
  mutable ei_adj : adj option;  (** built lazily on first navigation *)
  mutable ei_upd : Semantic.edge_updatability;
}

type t = {
  c_def : Co_schema.t;
  c_nodes : (string * node_inst) list;  (** in definition order *)
  c_edges : (string * edge_inst) list;
  mutable c_base_versions : (string * int) list;  (** staleness detection *)
}

exception Cache_error of string

val dummy_tuple : tuple
(** Placeholder element for {!Vec.create}. *)

val make_node :
  ?size_hint:int -> schema:Schema.t -> upd:Semantic.node_updatability option -> string -> node_inst
(** [make_node ~schema ~upd name] is an empty node instance; [size_hint]
    presizes the rowid index. *)

(** Decode boundary helpers: the cache stores dictionary-encoded rows;
    user-facing layers (TAKE, cursor delivery, sys.* rendering, base-table
    writes) decode through these. *)

val row : tuple -> Row.t
val col : tuple -> int -> Value.t
val conn_attrs : conn -> Row.t

(** Connection buffers (the fused fixpoint fills these directly). *)

val make_conns : ?size_hint:int -> attrs:bool -> unit -> conns
val push_conn : conns -> parent:int -> child:int -> attrs:Row.enc -> int

(** Per-connection accessors — hot paths, no boxing. *)

val conn_count : edge_inst -> int
val conn_parent_at : edge_inst -> int -> int
val conn_child_at : edge_inst -> int -> int
val conn_live_at : edge_inst -> int -> bool
val conn_attrs_at : edge_inst -> int -> Row.enc
val set_conn_live : edge_inst -> int -> bool -> unit

val conn_at : edge_inst -> int -> conn
(** [conn_at ei i] is a materialized view of connection [i] (live or not). *)

(** Lookups are case-insensitive. @raise Cache_error when absent. *)

val node : t -> string -> node_inst
val edge : t -> string -> edge_inst
val node_opt : t -> string -> node_inst option
val edge_opt : t -> string -> edge_inst option

(** [live_tuples ni] lists the node's live tuples in position order. *)
val live_tuples : node_inst -> tuple list

val live_count : node_inst -> int

(** [tuple ni pos] is the tuple at [pos] (live or not).
    @raise Cache_error on bad positions. *)
val tuple : node_inst -> int -> tuple

(** [conns_live ei] lists views of the live connections in id order. *)
val conns_live : edge_inst -> conn list

val live_conn_count : edge_inst -> int

(** [iter_conns_of_parent ei pos f] / [iter_conns_of_child ei pos f] apply
    [f] to the id of every connection (live or not) incident to the given
    position. Builds the adjacency on first use. *)

val iter_conns_of_parent : edge_inst -> int -> (int -> unit) -> unit
val iter_conns_of_child : edge_inst -> int -> (int -> unit) -> unit

(** Navigation. [children cache ei parent_pos] is the positions of the
    live child tuples joined to the parent tuple by live connections
    (traversal parent->child); [parents cache ei child_pos] is the
    reverse traversal, which XNF relationships permit. Both return one
    position per qualifying connection, in ascending connection id order:
    first the connections the adjacency was built over, then those added
    by {!add_conn} since, oldest first. A child reached through two
    connections appears twice. Only the result list is allocated; the
    [cache] argument is not consulted. *)

val children : t -> edge_inst -> int -> int list
val parents : t -> edge_inst -> int -> int list

(** [add_conn ei ~parent ~child ~attrs] appends a live connection, updating
    adjacency when built; returns its id. *)
val add_conn : edge_inst -> parent:int -> child:int -> attrs:Row.enc -> int

(** [add_tuple ni ~rowid row] appends a live tuple ([rowid] [-1] = no
    provenance); returns its position. *)
val add_tuple : node_inst -> rowid:int -> Row.enc -> int

(** [pos_of_rowid ni rowid] is the position caching base row [rowid], or
    [-1]. Allocation-free. *)
val pos_of_rowid : node_inst -> int -> int

(** [recompute_reachability cache] re-applies the reachability constraint
    inside the cache: root-node tuples seed a traversal along live
    connections in parent->child direction; unreached tuples and
    connections touching dead tuples are tombstoned. An instance whose
    projected definition has no root is left standing (its tuples are their
    own justification). *)
val recompute_reachability : t -> unit

(** [stale cache db] holds when any base table changed since the cache was
    loaded, other than through this cache's own propagation. *)
val stale : t -> Db.t -> bool

(** A snapshot lookup structure over one cached node: column key ->
    positions of the tuples live at build time, chained newest position
    first. Rebuild after manipulation operations that change the keyed
    column. *)
type key_index

(** [build_key_index cache ~node ~col] indexes the live tuples of [node] by
    column [col] — O(1) point access into the cache, as OO1-style
    applications expect.
    @raise Cache_error on unknown node or column. *)
val build_key_index : t -> node:string -> col:string -> key_index

(** [lookup_key cache ki v] is the positions of the tuples whose keyed
    column equalled [v] ({!Value.equal}) at build time and that are still
    live, newest position first. Never interns [v]. *)
val lookup_key : t -> key_index -> Value.t -> int list

(** [lookup_key_one cache ki v] is the first position {!lookup_key} would
    return, without building the list. *)
val lookup_key_one : t -> key_index -> Value.t -> int option

(** [total_tuples cache] / [total_conns cache]: live counts across all
    components. *)

val total_tuples : t -> int
val total_conns : t -> int

(** [pp] prints a summary (per node the live tuple count, per edge the live
    connection count). *)
val pp : Format.formatter -> t -> unit
