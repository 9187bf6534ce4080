(** Heap tables: mutable row storage with stable row ids, tombstoned
    deletion, automatic index maintenance and basic statistics.

    The optional touch hook lets the paged-storage simulation observe every
    row access the executor makes (see {!Buffer_pool} and {!Page}). *)

type t

exception Schema_violation of string

val create : name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

(** [cardinality t] is the number of live rows. *)
val cardinality : t -> int

(** [version t] changes whenever the table content changes (used for cache
    staleness detection). *)
val version : t -> int

(** [set_touch t hook] installs (or clears) the row-access observer. *)
val set_touch : t -> (int -> unit) option -> unit

(** [insert t row] appends [row], returning its row id.
    @raise Schema_violation on arity/type/nullability errors. *)
val insert : t -> Row.t -> int

(** [install t rowid row] materializes [row] at exactly [rowid]
    (recovery replay; preserves row ids). Grows the slot vector with
    tombstones; replaces a live occupant.
    @raise Schema_violation on invalid [row]. *)
val install : t -> int -> Row.t -> unit

(** [pad_slots t n] extends the slot vector with tombstones to at least
    [n] slots (checkpoint restore of trailing deletions). *)
val pad_slots : t -> int -> unit

(** [slot_count t] is the total slot count, live + tombstoned. *)
val slot_count : t -> int

(** [slot t rowid] is the raw slot content (no touch notification). *)
val slot : t -> int -> Row.t option

(** [set_version t v] forces the version counter (recovery only). *)
val set_version : t -> int -> unit

(** [get t rowid] is the live row at [rowid], if any (notifies touch). *)
val get : t -> int -> Row.t option

(** [delete t rowid] tombstones the row; returns the deleted row. *)
val delete : t -> int -> Row.t option

(** [update t rowid row] replaces the row; returns the previous row.
    @raise Schema_violation on invalid [row]. *)
val update : t -> int -> Row.t -> Row.t option

(** [restore t rowid row] re-materializes a previously deleted row at its
    original slot — transaction rollback.
    @raise Invalid_argument when the slot is live. *)
val restore : t -> int -> Row.t -> unit

(** [enc t rowid] is the live row at [rowid] dictionary-encoded
    ({!Row.encode}), memoized per slot: the first call encodes, later ones
    return the same array until a write to the slot (insert, install,
    update, delete, restore, clear, pad) resets it. No touch
    notification. The array is shared with every other caller — never
    mutate it.
    @raise Invalid_argument on a tombstoned slot. *)
val enc : t -> int -> Row.enc

(** [iter f t] applies [f rowid row] to every live row. *)
val iter : (int -> Row.t -> unit) -> t -> unit

(** [to_seq t] enumerates [(rowid, row)] for live rows; do not mutate the
    table during consumption. *)
val to_seq : t -> (int * Row.t) Seq.t

(** [rows t] is a materialized snapshot of the live rows. *)
val rows : t -> Row.t list

(** [rowids t] lists live row ids. *)
val rowids : t -> int list

(** [add_index t ~name ~cols kind] creates and backfills an index. Bumps
    the global index epoch. *)
val add_index : t -> name:string -> cols:int array -> Index.kind -> Index.t

val indexes : t -> Index.t list

(** [drop_index t ~name] removes the index named [name] (case-insensitive);
    returns whether one was removed. Bumps the global index epoch. *)
val drop_index : t -> name:string -> bool

(** [find_index t ~cols] is an index keyed exactly by [cols], if any. *)
val find_index : t -> cols:int array -> Index.t option

(** [lookup_index t idx key] resolves index hits to live rows (notifies
    touch per fetched row). *)
val lookup_index : t -> Index.t -> Row.t -> (int * Row.t) list

(** [set_primary_key t cols] records the PK column positions (uniqueness is
    enforced by the executor through the PK index). *)
val set_primary_key : t -> int array -> unit

val primary_key : t -> int array option

(** [clear t] removes all rows and resets indexes. *)
val clear : t -> unit

(** [distinct_estimate t col] is the exact distinct count of column [col]
    over live rows (tables are in memory, exact statistics are
    affordable). *)
val distinct_estimate : t -> int -> int
