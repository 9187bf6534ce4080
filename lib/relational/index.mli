(** Secondary indexes: multimaps from keys to row ids. Indexes
    maintained by {!Table} on every DML operation never own the data; the
    XNF fetch core also builds private ones over a table's rows.

    Every index chains row ids by their key's normalized dictionary key
    ids ({!Dict.key_cell}) over flat int arrays: a lookup compares ints
    and never builds or hashes a boxed row, and an emptied key leaves the
    structure at once. Key equality is {!Row.equal} (Int/Float
    cross-equal, NULL = NULL); callers apply SQL's NULL-never-joins rule
    themselves. Every equality lookup walks the chains and delivers row
    ids newest first; ordered indexes also keep a range map. *)

type kind = Hash | Ordered

type t

(** [create ~name ~cols kind] is an empty index over the key column
    positions [cols] of the indexed table. Does not move the epoch:
    {!Table.add_index} does, so private indexes never invalidate plans. *)
val create : name:string -> cols:int array -> kind -> t

(** [epoch ()] is the global index epoch: bumped whenever a table gains
    or loses an index. Cached fetch plans bake index choices in
    at compile time and record this; a moved epoch invalidates them. *)
val epoch : unit -> int

(** [bump_epoch ()] advances the global index epoch. *)
val bump_epoch : unit -> unit

val name : t -> string
val cols : t -> int array
val kind : t -> kind

(** [insert t row rowid] registers [rowid] under [row]'s key (interning
    the key's values). *)
val insert : t -> Row.t -> int -> unit

(** [insert_enc t enc rowid] registers [rowid] under the key of the
    dictionary-encoded row [enc] (key-id form: interns nothing).
    @raise Invalid_argument on an ordered index. *)
val insert_enc : t -> Row.enc -> int -> unit

(** [remove t row rowid] unregisters [rowid] from [row]'s key. *)
val remove : t -> Row.t -> int -> unit

(** [first t ids] is the newest row id whose key's normalized key ids
    are [ids], or [-1]; [next t ids r] is the next older one after [r],
    or [-1]. A chain walk with the pair allocates nothing. *)
val first : t -> int array -> int

val next : t -> int array -> int -> int

(** [iter_ids t ids f] applies [f] to the row ids whose key's normalized
    key ids are [ids], newest first. [f] must not modify the index. *)
val iter_ids : t -> int array -> (int -> unit) -> unit

(** [iter t key f] applies [f] to the row ids whose key equals [key],
    newest first. Never interns: a key value the dictionary lacks has no
    hits. *)
val iter : t -> Row.t -> (int -> unit) -> unit

(** [lookup t key] is the row ids whose key equals [key], newest first. *)
val lookup : t -> Row.t -> int list

(** [range t ?lo ?hi ()] enumerates row ids with keys in the interval.
    @raise Invalid_argument on hash indexes. *)
val range : t -> ?lo:[ `Incl of Row.t | `Excl of Row.t ] -> ?hi:[ `Incl of Row.t | `Excl of Row.t ] -> unit -> int list

(** [distinct_keys t] counts distinct keys currently present. *)
val distinct_keys : t -> int

val clear : t -> unit
