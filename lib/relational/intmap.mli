(** Open-addressing int -> int hash map for the execution core's hot
    paths: inline storage, allocation-free lookup and insert (growth
    aside), sentinel-based absence. Keys must be non-negative. *)

type t

val absent : int
(** Sentinel returned by {!get} for unbound keys: [-1]. *)

val create : size:int -> t
(** [create ~size] is an empty map presized for about [size] bindings. *)

val length : t -> int

val get : t -> int -> int
(** [get m k] is the value bound to [k], or {!absent} when unbound.
    Allocation-free. *)

val set : t -> int -> int -> unit
(** [set m k v] binds [k] to [v], replacing any previous binding.
    @raise Invalid_argument on a negative key. *)

val iter : (int -> int -> unit) -> t -> unit

val remove : t -> int -> unit
(** [remove m k] unbinds [k]; a no-op when [k] is unbound. Later
    bindings of the probe run shift back, so no tombstones accumulate. *)

val clear : t -> unit
(** [clear m] unbinds every key, keeping the capacity. *)
