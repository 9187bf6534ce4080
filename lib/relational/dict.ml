(* Global value dictionary — see dict.mli for the id layout.

   Interning is exact (per-constructor): the table's equality must never
   merge values that [decode] should distinguish, and must merge values
   [Value.equal] callers could intern twice. Floats use [Float.compare]
   equality, which collapses every NaN onto one slot (polymorphic
   hashing of NaN payloads is not stable) and treats -0. and 0. as the
   same slot — consistent with [Value.equal] in both cases. *)

let null_id = 0b010 (* tag 10, payload 0 *)
let false_id = 0b110 (* tag 10, payload 1 *)
let true_id = 0b1010 (* tag 10, payload 2 *)

let is_null id = id = null_id

(* Inline-int range: [v lsl 2] must round-trip through [asr 2]. *)
let min_inline = -(1 lsl 60)
let max_inline = (1 lsl 60) - 1

(* Largest float magnitude for which [int_of_float] is exact and defined:
   2^62. Integral floats at or beyond this cannot be normalized to the
   int they (approximately) equal and keep their own slot. *)
let float_int_bound = 4.611686018427387904e18

module VKey = struct
  type t = Value.t

  let equal a b =
    match a, b with
    | Value.Str x, Value.Str y -> String.equal x y
    | Value.Float x, Value.Float y -> Float.compare x y = 0
    | Value.Int x, Value.Int y -> x = y
    | Value.Bool x, Value.Bool y -> x = y
    | Value.Null, Value.Null -> true
    | _ -> false

  let hash = function
    | Value.Str s -> Hashtbl.hash s
    | Value.Float f ->
      (* must agree for Float.compare-equal bit patterns: -0./0. fall in
         the integral branch, NaN payloads on the fixed constant *)
      if Float.is_nan f then 0x5bd1e995
      else if Float.is_integer f && Float.abs f < float_int_bound then
        Hashtbl.hash (int_of_float f)
      else Hashtbl.hash f
    | v -> Hashtbl.hash v
end

module VTbl = Hashtbl.Make (VKey)

(* slot -> entry value, and slot -> normalized join-key id *)
let values : Value.t Vec.t = Vec.create ~dummy:Value.Null ()
let keys : int Vec.t = Vec.create ~dummy:0 ()
let slots : int VTbl.t = VTbl.create 4096

let size () = Vec.length values

let id_of_slot slot = (slot lsl 2) lor 1

let rec intern (v : Value.t) : int =
  match VTbl.find_opt slots v with
  | Some slot -> id_of_slot slot
  | None ->
    (* compute the key id FIRST: normalizing an integral float may intern
       the out-of-inline-range int it equals, which must get its slot
       before ours so [restore] replays in snapshot order. *)
    let key =
      match v with
      | Value.Float f
        when Float.is_integer f
             && Float.abs f < float_int_bound
             && not (Float.is_nan f) ->
        let n = int_of_float f in
        if n >= min_inline && n <= max_inline then n lsl 2 else intern (Value.Int n)
      | _ -> -1 (* own id, patched below *)
    in
    let slot = Vec.length values in
    Vec.push values v;
    Vec.push keys (if key = -1 then id_of_slot slot else key);
    VTbl.add slots v slot;
    id_of_slot slot

let encode = function
  | Value.Null -> null_id
  | Value.Bool false -> false_id
  | Value.Bool true -> true_id
  | Value.Int v when v >= min_inline && v <= max_inline -> v lsl 2
  | v -> intern v

let decode id =
  match id land 3 with
  | 0 -> Value.Int (id asr 2)
  | 1 ->
    let slot = id lsr 2 in
    if slot >= Vec.length values then
      invalid_arg (Printf.sprintf "Dict.decode: unknown slot id %d" id)
    else Vec.get values slot
  | 2 -> begin
    match id asr 2 with
    | 0 -> Value.Null
    | 1 -> Value.Bool false
    | 2 -> Value.Bool true
    | _ -> invalid_arg (Printf.sprintf "Dict.decode: unknown special id %d" id)
  end
  | _ -> invalid_arg (Printf.sprintf "Dict.decode: bad tag in id %d" id)

let find_exact = function
  | Value.Null -> Some null_id
  | Value.Bool false -> Some false_id
  | Value.Bool true -> Some true_id
  | Value.Int v when v >= min_inline && v <= max_inline -> Some (v lsl 2)
  | v -> ( match VTbl.find_opt slots v with Some slot -> Some (id_of_slot slot) | None -> None)

let key_cell id = if id land 3 = 1 then Vec.get keys (id lsr 2) else id

(* an integral float's key is its integer's, as in [intern] *)
let rec find_key = function
  | Value.Float f
    when Float.is_integer f && Float.abs f < float_int_bound && not (Float.is_nan f) ->
    find_key (Value.Int (int_of_float f))
  | v -> Option.map key_cell (find_exact v)

let encode_row (r : Value.t array) : int array = Array.map encode r
let decode_row (e : int array) : Value.t array = Array.map decode e

let snapshot () = Array.init (Vec.length values) (Vec.get values)

let restore entries = Array.iter (fun v -> ignore (intern v)) entries
