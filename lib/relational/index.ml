(* Secondary indexes: multimaps from keys to row ids. Indexes maintained
   by {!Table} on every DML operation never own the data; the XNF fetch
   core also builds private ones over a table's rows (its hash builds).

   Every index is a set of chains over flat int arrays, keyed by
   normalized dictionary key ids ([Dict.key_cell], so Int/Float
   cross-equal values share a key and NULL = NULL): [heads] maps a key
   hash to the newest rowid of its chain, [next]/[prev] link the chain's
   rowids newest-first, and [keys] holds every rowid's key ids at
   [rowid * arity]. Keys that hash alike share a chain, so a lookup walks
   it comparing ints — it never builds or hashes a boxed row. An emptied
   chain leaves [heads] at once, so key churn under DELETE/UPDATE cannot
   grow it. Every equality lookup walks the chains; ordered indexes
   additionally keep a [Map] over boxed key rows for range scans. *)

module KeyMap = Map.Make (struct
  type t = Row.t

  let compare = Row.compare
end)

type kind = Hash | Ordered

type t = {
  idx_name : string;
  idx_cols : int array;  (** key column positions in the indexed table *)
  idx_kind : kind;
  heads : Intmap.t;  (** key hash -> newest rowid of the chain *)
  mutable next : int array;  (** rowid -> next older rowid of its chain, -1 at the end *)
  mutable prev : int array;  (** rowid -> next newer rowid, -1 at the head, [not_in] if absent *)
  mutable keys : int array;  (** rowid's key ids at [rowid * arity] *)
  mutable distinct : int;  (** distinct keys present *)
  mutable ordered : int list KeyMap.t;  (** range map, used when [idx_kind = Ordered] *)
}

let not_in = -2

(* Global index epoch: bumped whenever a table gains or loses an index
   ({!Table.add_index}, {!Table.drop_index}) or recovery rebuilds them.
   Cached fetch plans bake index choices in at compile time and record the
   epoch they compiled against; a moved epoch invalidates them. Private
   indexes never move it. *)
let epoch_counter = ref 0

(** [epoch ()] is the global index epoch. *)
let epoch () = !epoch_counter

(** [bump_epoch ()] advances the global index epoch. *)
let bump_epoch () = incr epoch_counter

(** [create ~name ~cols kind] is an empty index over key columns [cols]. *)
let create ~name ~cols kind =
  { idx_name = name; idx_cols = cols; idx_kind = kind; heads = Intmap.create ~size:64;
    next = [||]; prev = [||]; keys = [||]; distinct = 0; ordered = KeyMap.empty }

let name t = t.idx_name
let cols t = t.idx_cols
let kind t = t.idx_kind

(* hash of the [n] key ids at [a.(off)..]: a one-column key is its own
   hash; Intmap keys must be non-negative *)
let hash_ids a off n =
  if n = 1 then a.(off) land max_int
  else begin
    let h = ref 0 in
    for i = off to off + n - 1 do
      h := (!h * 0x2545F4914F6CDD1D) + a.(i)
    done;
    !h land max_int
  end

(* do the key ids at [keys.(base)..] equal [a.(off)..], from column [i]
   on? Top-level, so a chain walk allocates nothing. *)
let rec same_from keys base a off i n =
  i >= n || (keys.(base + i) = a.(off + i) && same_from keys base a off (i + 1) n)

(* does [r]'s stored key equal the [n] ids at [a.(off)..]? A one-column
   key, the common case, is one inline compare. *)
let same_key t r a off n =
  if n = 1 then t.keys.(r) = a.(off) else same_from t.keys (r * n) a off 0 n

(* is some rowid other than [skip] on the chain from [r] keyed like
   [a.(off)..]? *)
let rec key_on_chain t r ~skip a off n =
  r >= 0 && ((r <> skip && same_key t r a off n) || key_on_chain t t.next.(r) ~skip a off n)

let ensure_capacity t rowid =
  let cap = Array.length t.prev in
  if rowid >= cap then begin
    let cap' = max (rowid + 1) (max 16 (2 * cap)) in
    let n = Array.length t.idx_cols in
    let grow a fill size =
      let a' = Array.make size fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.next <- grow t.next (-1) cap';
    t.prev <- grow t.prev not_in cap';
    t.keys <- grow t.keys 0 (cap' * n)
  end

(* link [rowid] at the head of its chain; [set_keys off] has written its
   key ids at [keys.(off)..] *)
let link t rowid set_keys =
  ensure_capacity t rowid;
  let n = Array.length t.idx_cols in
  let off = rowid * n in
  set_keys off;
  let h = hash_ids t.keys off n in
  let head = Intmap.get t.heads h in
  if not (key_on_chain t head ~skip:rowid t.keys off n) then t.distinct <- t.distinct + 1;
  t.next.(rowid) <- head;
  t.prev.(rowid) <- -1;
  if head >= 0 then t.prev.(head) <- rowid;
  Intmap.set t.heads h rowid

(** [insert_enc t enc rowid] registers [rowid] under the key of the
    dictionary-encoded row [enc] — the key-id form, which interns
    nothing. @raise Invalid_argument on an ordered index. *)
let insert_enc t (enc : Row.enc) rowid =
  if t.idx_kind = Ordered then invalid_arg "Index.insert_enc: ordered index";
  link t rowid (fun off ->
      Array.iteri (fun i c -> t.keys.(off + i) <- Dict.key_cell enc.(c)) t.idx_cols)

(** [insert t row rowid] registers [rowid] under [row]'s key. *)
let insert t (row : Row.t) rowid =
  link t rowid (fun off ->
      Array.iteri (fun i c -> t.keys.(off + i) <- Dict.key_cell (Dict.encode row.(c))) t.idx_cols);
  if t.idx_kind = Ordered then begin
    let key = Row.project row t.idx_cols in
    let cur = Option.value ~default:[] (KeyMap.find_opt key t.ordered) in
    t.ordered <- KeyMap.add key (rowid :: cur) t.ordered
  end

(** [remove t row rowid] unregisters [rowid] from [row]'s key: the chain
    unlinks the key it stored for [rowid]. *)
let remove t (row : Row.t) rowid =
  if rowid >= 0 && rowid < Array.length t.prev && t.prev.(rowid) <> not_in then begin
    let n = Array.length t.idx_cols in
    let off = rowid * n in
    let h = hash_ids t.keys off n in
    let p = t.prev.(rowid) and nx = t.next.(rowid) in
    if nx >= 0 then t.prev.(nx) <- p;
    if p >= 0 then t.next.(p) <- nx
    else if nx >= 0 then Intmap.set t.heads h nx
    else Intmap.remove t.heads h;
    t.prev.(rowid) <- not_in;
    if not (key_on_chain t (Intmap.get t.heads h) ~skip:rowid t.keys off n) then
      t.distinct <- t.distinct - 1
  end;
  if t.idx_kind = Ordered then begin
    let key = Row.project row t.idx_cols in
    match KeyMap.find_opt key t.ordered with
    | None -> ()
    | Some ids ->
      let ids = List.filter (fun id -> id <> rowid) ids in
      t.ordered <-
        (if ids = [] then KeyMap.remove key t.ordered else KeyMap.add key ids t.ordered)
  end

(* the first rowid from [r] on along its chain keyed like [ids] *)
let rec seek t ids n r = if r < 0 || same_key t r ids 0 n then r else seek t ids n t.next.(r)

(** [first t ids] is the newest row id whose key's normalized key ids
    ({!Dict.key_cell}) are [ids], or [-1]. *)
let first t (ids : int array) =
  let n = Array.length ids in
  seek t ids n (Intmap.get t.heads (hash_ids ids 0 n))

(** [next t ids r] is the next older row id after [r] keyed like [ids],
    or [-1]. *)
let next t (ids : int array) r = seek t ids (Array.length ids) t.next.(r)

(** [iter_ids t ids f] applies [f] to the row ids whose key's normalized
    key ids are [ids], newest first. The next link is read before [f]
    runs. *)
let iter_ids t (ids : int array) f =
  let rec go r =
    if r >= 0 then begin
      let nx = next t ids r in
      f r;
      go nx
    end
  in
  go (first t ids)

(** [iter t key f] applies [f] to the row ids whose key equals [key]
    ({!Row.equal}), newest first. Never interns: a key holding a value
    the dictionary lacks has no hits. *)
let iter t (key : Row.t) f =
  match Array.map (fun v -> match Dict.find_key v with Some k -> k | None -> raise Exit) key with
  | ids -> iter_ids t ids f
  | exception Exit -> ()

(** [lookup t key] is the row ids whose key equals [key], newest first. *)
let lookup t (key : Row.t) : int list =
  let acc = ref [] in
  iter t key (fun r -> acc := r :: !acc);
  List.rev !acc

(** [range t ?lo ?hi ()] enumerates row ids with keys in the interval;
    bounds are inclusive when the flag is [`Incl], exclusive for [`Excl].
    Only valid on [Ordered] indexes. *)
let range t ?lo ?hi () : int list =
  match t.idx_kind with
  | Hash -> invalid_arg "Index.range: hash index"
  | Ordered ->
    let in_lo key =
      match lo with
      | None -> true
      | Some (`Incl k) -> Row.compare key k >= 0
      | Some (`Excl k) -> Row.compare key k > 0
    in
    let in_hi key =
      match hi with
      | None -> true
      | Some (`Incl k) -> Row.compare key k <= 0
      | Some (`Excl k) -> Row.compare key k < 0
    in
    KeyMap.fold
      (fun key ids acc -> if in_lo key && in_hi key then List.rev_append ids acc else acc)
      t.ordered []
    |> List.rev

(** [distinct_keys t] counts distinct keys currently present. *)
let distinct_keys t = t.distinct

(** [clear t] empties the index. *)
let clear t =
  Intmap.clear t.heads;
  t.next <- [||];
  t.prev <- [||];
  t.keys <- [||];
  t.distinct <- 0;
  t.ordered <- KeyMap.empty
