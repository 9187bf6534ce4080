(** Secondary indexes: hash (equality) and ordered (range) multimaps from
    keys to row ids. Maintained by {!Table} on every DML operation; they
    never own the data.

    A hash index chains row ids by their key's normalized dictionary key
    ids ({!Dict.key_cell}) over flat int arrays: a lookup compares ints
    and never builds or hashes a boxed row, and an emptied key leaves the
    structure at once. Key equality is {!Row.equal} (Int/Float
    cross-equal, NULL = NULL); callers apply SQL's NULL-never-joins rule
    themselves. Every lookup delivers row ids newest first. *)

type kind = Hash | Ordered

type t

(** [create ~name ~cols kind] is an empty index over the key column
    positions [cols] of the indexed table. Bumps the global epoch. *)
val create : name:string -> cols:int array -> kind -> t

(** [epoch ()] is the global index epoch: bumped whenever an index is
    created or dropped anywhere. Cached fetch plans bake index choices in
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

(** [remove t row rowid] unregisters [rowid] from [row]'s key. *)
val remove : t -> Row.t -> int -> unit

(** [iter_ids t ids f] applies [f] to the row ids whose key's normalized
    key ids are [ids], newest first. [f] must not modify the index. *)
val iter_ids : t -> int array -> (int -> unit) -> unit

(** [iter_id t k f] is [iter_ids t [| k |] f] on a one-column index,
    without allocating the key array.
    @raise Invalid_argument on a multi-column index. *)
val iter_id : t -> int -> (int -> unit) -> unit

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
