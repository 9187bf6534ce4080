(* Open-addressing int -> int hash map.

   The execution core's hot paths (rowid -> cache position, extent tid ->
   position) key dense non-negative ints and run millions of probes per
   fetch; [Hashtbl] costs one boxed bucket cell per binding plus an
   option per [find_opt]. This map stores bindings inline in one
   interleaved [key; value] int array — lookups and inserts allocate
   nothing (growth aside), and absence is a sentinel, not an option.

   Keys must be >= 0. Capacity is a power of two; multiplicative hashing
   spreads dense keys; linear probing resolves collisions. Deletion
   shifts the rest of the probe run back into the hole (no tombstones),
   so a long-lived map under key churn stays as small as its live
   bindings. *)

type t = {
  mutable slots : int array;  (** interleaved [key; value], key [-1] = empty *)
  mutable mask : int;  (** capacity - 1, capacity a power of two *)
  mutable len : int;
}

let absent = -1

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let make_slots cap = Array.make (2 * cap) (-1)

(** [create ~size] is an empty map presized for about [size] bindings. *)
let create ~size =
  let cap = pow2 (max 8 ((size * 4 / 3) + 1)) 8 in
  { slots = make_slots cap; mask = cap - 1; len = 0 }

let length m = m.len

(* Fibonacci hashing: dense and strided keys spread uniformly *)
let slot_of m k = (k * 0x2545F4914F6CDD1D) lsr 8 land m.mask

(* top-level (not a local closure): [get] runs millions of times per
   fetch and must not allocate *)
let rec get_probe slots mask k i =
  let j = 2 * (i land mask) in
  let kj = Array.unsafe_get slots j in
  if kj = k then Array.unsafe_get slots (j + 1)
  else if kj = -1 then absent
  else get_probe slots mask k (i + 1)

(** [get m k] is the value bound to [k], or [absent] (-1) when unbound. *)
let get m k = get_probe m.slots m.mask k (slot_of m k)

let rec insert slots mask k v i =
  let j = 2 * (i land mask) in
  let kj = Array.unsafe_get slots j in
  if kj = -1 || kj = k then begin
    let fresh = kj = -1 in
    Array.unsafe_set slots j k;
    Array.unsafe_set slots (j + 1) v;
    fresh
  end
  else insert slots mask k v (i + 1)

let grow m =
  let cap = 4 * (m.mask + 1) in
  let slots = make_slots cap in
  let mask = cap - 1 in
  for i = 0 to m.mask do
    let k = m.slots.(2 * i) in
    if k >= 0 then
      ignore
        (insert slots mask k m.slots.((2 * i) + 1) ((k * 0x2545F4914F6CDD1D) lsr 8 land mask))
  done;
  m.slots <- slots;
  m.mask <- mask

(** [set m k v] binds [k] to [v], replacing any previous binding. *)
let set m k v =
  if k < 0 then invalid_arg "Intmap.set: negative key";
  if 4 * (m.len + 1) > 3 * (m.mask + 1) then grow m;
  if insert m.slots m.mask k v (slot_of m k) then m.len <- m.len + 1

(** [iter f m] applies [f key value] to every binding (unspecified order). *)
let iter f m =
  for i = 0 to m.mask do
    let k = m.slots.(2 * i) in
    if k >= 0 then f k m.slots.((2 * i) + 1)
  done

(* slot index holding [k], or -1 *)
let rec find_slot slots mask k i =
  let i = i land mask in
  let ki = Array.unsafe_get slots (2 * i) in
  if ki = k then i else if ki = -1 then -1 else find_slot slots mask k (i + 1)

(** [remove m k] unbinds [k] (no-op when unbound). *)
let remove m k =
  let slots = m.slots and mask = m.mask in
  let i = if k < 0 then -1 else find_slot slots mask k (slot_of m k) in
  if i >= 0 then begin
    m.len <- m.len - 1;
    (* backward shift: a later binding of the probe run moves into the
       hole unless its home slot lies cyclically between hole and it *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while slots.(2 * !j) <> -1 do
      let kj = slots.(2 * !j) in
      if (!j - slot_of m kj) land mask >= (!j - !hole) land mask then begin
        slots.(2 * !hole) <- kj;
        slots.((2 * !hole) + 1) <- slots.((2 * !j) + 1);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    slots.(2 * !hole) <- -1;
    slots.((2 * !hole) + 1) <- -1
  end

(** [clear m] unbinds every key, keeping the capacity. *)
let clear m =
  Array.fill m.slots 0 (Array.length m.slots) (-1);
  m.len <- 0
