(** Global value dictionary: every {!Value.t} maps to a dense tagged int
    id, and the execution core runs on those ids instead of boxed values.

    Id layout (2 tag bits in OCaml's 63-bit native int):

    - tag [00] — inline integer: [id asr 2] is the value. Covers every
      [Int v] with [-2^60 <= v < 2^60], so ordinary integer columns never
      touch the dictionary at all.
    - tag [01] — dictionary slot: [id asr 2] indexes the intern table.
      Holds [Str], [Float], and the (rare) out-of-inline-range [Int].
    - tag [10] — specials: {!null_id} (NULL), {!false_id}, {!true_id}.

    Exact ids are structural: [Int 1] and [Float 1.] have different ids,
    so [decode (encode v)] round-trips the constructor. Join keys instead
    need SQL equality ([Value.equal]: Int/Float cross-equal, NULL = NULL);
    {!key_cell} normalizes an exact id to a key id such that
    [key_cell a = key_cell b <-> Value.equal (decode a) (decode b)] —
    integral floats normalize to the id of the integer they equal. NULL
    keys keep {!null_id}; SQL's NULL-never-joins rule stays with the
    caller (skip keys containing {!null_id}).

    The dictionary only grows; ids are never relocated, so encoded rows
    held by caches stay decodable across {!restore}. *)

(** Reserved special ids. *)

val null_id : int
val false_id : int
val true_id : int

(** [is_null id] is [id = null_id]. *)
val is_null : int -> bool

(** [encode v] is the exact id for [v], interning it if needed. *)
val encode : Value.t -> int

(** [decode id] is the value for [id].
    @raise Invalid_argument on an id no dictionary entry backs. *)
val decode : int -> Value.t

(** [find_exact v] is [encode v] without interning: [None] when [v] has no
    id yet (so no encoded row anywhere can contain it). *)
val find_exact : Value.t -> int option

(** [key_cell id] is the normalized join-key id for exact id [id]. O(1),
    allocation-free (an array read for slot ids, identity otherwise). *)
val key_cell : int -> int

(** [find_key v] is [key_cell (encode v)] without interning: [None] when
    no interned value is key-equal to [v] (so no encoded row anywhere can
    match it). An integral float yields its integer's key id even when the
    float itself was never interned. Lookups use this so a miss never
    grows the dictionary. *)
val find_key : Value.t -> int option

(** [encode_row r] / [decode_row e] map {!encode}/{!decode} over a row. *)

val encode_row : Value.t array -> int array
val decode_row : int array -> Value.t array

(** [size ()] is the number of interned slots (inline ints and specials
    excluded). *)
val size : unit -> int

(** [snapshot ()] is the interned entries in slot order — the persistent
    image written at checkpoint. *)
val snapshot : unit -> Value.t array

(** [restore entries] re-interns [entries] in order. In a fresh process
    this reproduces the snapshotting process's slots exactly; in a warm
    one existing ids never move (new entries get fresh slots), so rows
    encoded before the restore stay valid. *)
val restore : Value.t array -> unit
