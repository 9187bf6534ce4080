(* Heap tables: mutable row storage with stable row ids, tombstoned
   deletion, automatic index maintenance and basic statistics.

   The optional [touch] hook lets the paged-storage simulation observe every
   row access made by the executor (see {!Buffer_pool} and experiment E4).

   [encs] memoizes each slot's dictionary encoding for the XNF core: a
   slot's entry is filled on its first {!enc} and reset by every write to
   the slot, so an encoded row handed out always matches the live row.
   Encoded rows are shared with whoever reads them (cache tuples, hash
   builds) and must never be mutated in place. *)

type t = {
  tbl_name : string;
  schema : Schema.t;
  rows : Row.t option Vec.t;  (** [None] marks a deleted slot (tombstone) *)
  encs : Row.enc Vec.t;  (** per-slot encode memo, [no_enc] = not yet encoded *)
  mutable live : int;
  mutable indexes : Index.t list;
  mutable version : int;  (** bumped by every DML, for cache invalidation *)
  mutable touch : (int -> unit) option;  (** row-access observer (rowid) *)
  mutable primary_key : int array option;  (** column positions of the PK *)
}

exception Schema_violation of string

let no_enc : Row.enc = [||]

(** [create ~name schema] is an empty table. *)
let create ~name schema =
  { tbl_name = name; schema; rows = Vec.create ~dummy:None (); encs = Vec.create ~dummy:no_enc ();
    live = 0; indexes = []; version = 0; touch = None; primary_key = None }

(* every slot write goes through here, so the memo never outlives it *)
let set_slot t rowid slot =
  Vec.set t.rows rowid slot;
  Vec.set t.encs rowid no_enc

let push_slot t slot =
  Vec.push t.rows slot;
  Vec.push t.encs no_enc

let name t = t.tbl_name
let schema t = t.schema

(** [cardinality t] is the number of live rows. *)
let cardinality t = t.live

(** [version t] changes whenever the table content changes. *)
let version t = t.version

(** [set_touch t hook] installs (or clears) the row-access observer. *)
let set_touch t hook = t.touch <- hook

let notify_touch t rowid = match t.touch with None -> () | Some f -> f rowid

let check_row t (row : Row.t) =
  if Array.length row <> Schema.arity t.schema then
    raise (Schema_violation
             (Printf.sprintf "%s: arity %d, got %d" t.tbl_name (Schema.arity t.schema)
                (Array.length row)));
  Array.iteri
    (fun i v ->
      let c = Schema.col t.schema i in
      if not (Schema.value_matches c.Schema.col_ty v) then
        raise (Schema_violation
                 (Printf.sprintf "%s.%s: expected %s, got %s" t.tbl_name c.Schema.col_name
                    (Schema.ty_to_string c.Schema.col_ty) (Value.to_string v)));
      if Value.is_null v && not c.Schema.col_nullable then
        raise (Schema_violation (Printf.sprintf "%s.%s: NOT NULL violated" t.tbl_name c.Schema.col_name)))
    row

(** [insert t row] appends [row], returning its row id.
    @raise Schema_violation on arity/type/nullability errors. *)
let insert t row =
  check_row t row;
  let rowid = Vec.length t.rows in
  push_slot t (Some row);
  t.live <- t.live + 1;
  t.version <- t.version + 1;
  List.iter (fun idx -> Index.insert idx row rowid) t.indexes;
  rowid

(** [install t rowid row] materializes [row] at exactly [rowid] —
    recovery replay, where row ids must be preserved. The vector grows
    with tombstones as needed; a live occupant is replaced (its index
    entries removed first).
    @raise Schema_violation on invalid [row]. *)
let install t rowid row =
  check_row t row;
  if rowid < 0 then invalid_arg "Table.install: negative rowid";
  while Vec.length t.rows <= rowid do
    push_slot t None
  done;
  (match Vec.get t.rows rowid with
  | Some old ->
    t.live <- t.live - 1;
    List.iter (fun idx -> Index.remove idx old rowid) t.indexes
  | None -> ());
  set_slot t rowid (Some row);
  t.live <- t.live + 1;
  t.version <- t.version + 1;
  List.iter (fun idx -> Index.insert idx row rowid) t.indexes

(** [pad_slots t n] extends the slot vector with tombstones until it has
    at least [n] slots — checkpoint restore reproducing trailing deleted
    slots, so the next insert gets the same rowid it would have live. *)
let pad_slots t n =
  while Vec.length t.rows < n do
    push_slot t None
  done

(** [slot_count t] is the total number of slots (live + tombstoned). *)
let slot_count t = Vec.length t.rows

(** [slot t rowid] is the raw slot content, without touch notification —
    checkpoint serialization. *)
let slot t rowid = if rowid < 0 || rowid >= Vec.length t.rows then None else Vec.get t.rows rowid

(** [set_version t v] forces the version counter — recovery restoring a
    checkpointed version, or bumping past a pre-recovery one so caches
    notice. *)
let set_version t v = t.version <- v

(** [get t rowid] is the live row at [rowid], if any. *)
let get t rowid =
  if rowid < 0 || rowid >= Vec.length t.rows then None
  else
    match Vec.get t.rows rowid with
    | Some _ as r ->
      notify_touch t rowid;
      r
    | None -> None

(** [delete t rowid] tombstones the row. Returns the deleted row, or [None]
    if the slot was already empty. *)
let delete t rowid =
  if rowid < 0 || rowid >= Vec.length t.rows then None
  else
    match Vec.get t.rows rowid with
    | None -> None
    | Some row ->
      set_slot t rowid None;
      t.live <- t.live - 1;
      t.version <- t.version + 1;
      List.iter (fun idx -> Index.remove idx row rowid) t.indexes;
      Some row

(** [update t rowid row] replaces the row at [rowid]. Returns the previous
    row. @raise Schema_violation on invalid [row]. *)
let update t rowid row =
  check_row t row;
  match Vec.get t.rows rowid with
  | None -> None
  | Some old ->
    set_slot t rowid (Some row);
    t.version <- t.version + 1;
    List.iter
      (fun idx ->
        Index.remove idx old rowid;
        Index.insert idx row rowid)
      t.indexes;
    Some old

(** [restore t rowid row] re-materializes a previously deleted row at its
    original slot — used by transaction rollback. *)
let restore t rowid row =
  check_row t row;
  (match Vec.get t.rows rowid with
  | Some _ -> invalid_arg "Table.restore: slot is live"
  | None -> ());
  set_slot t rowid (Some row);
  t.live <- t.live + 1;
  t.version <- t.version + 1;
  List.iter (fun idx -> Index.insert idx row rowid) t.indexes

(** [enc t rowid] is the live row at [rowid] dictionary-encoded, from the
    memo when the slot has not been written since it was last encoded.
    No touch notification (the caller has already read the row). The
    result is shared: never mutate it.
    @raise Invalid_argument on a tombstoned or out-of-range slot. *)
let enc t rowid =
  let e = Vec.get t.encs rowid in
  if e != no_enc then e
  else
    match Vec.get t.rows rowid with
    | Some row ->
      let e = Row.encode row in
      Vec.set t.encs rowid e;
      e
    | None -> invalid_arg "Table.enc: deleted slot"

(** [iter f t] applies [f rowid row] to every live row, notifying the touch
    hook (a full scan reads every row). *)
let iter f t =
  Vec.iteri
    (fun rowid slot ->
      match slot with
      | Some row ->
        notify_touch t rowid;
        f rowid row
      | None -> ())
    t.rows

(** [to_seq t] enumerates [(rowid, row)] for live rows. The table must not
    be mutated during consumption (the executor materializes first when it
    mutates). *)
let to_seq t =
  Vec.to_seq t.rows
  |> Seq.zip (Seq.ints 0)
  |> Seq.filter_map (fun (rowid, slot) ->
         match slot with
         | Some row ->
           notify_touch t rowid;
           Some (rowid, row)
         | None -> None)

(** [rows t] is the list of live rows (materialized snapshot). *)
let rows t =
  List.rev (Vec.fold (fun acc slot -> match slot with Some r -> r :: acc | None -> acc) [] t.rows)

(** [rowids t] is the list of live row ids. *)
let rowids t =
  let acc = ref [] in
  Vec.iteri (fun i slot -> if Option.is_some slot then acc := i :: !acc) t.rows;
  List.rev !acc

(** [add_index t ~name ~cols kind] creates and backfills an index on key
    columns [cols]; returns it. Bumps the global index epoch. *)
let add_index t ~name ~cols kind =
  let idx = Index.create ~name ~cols kind in
  Index.bump_epoch ();
  Vec.iteri
    (fun rowid slot -> match slot with Some row -> Index.insert idx row rowid | None -> ())
    t.rows;
  t.indexes <- idx :: t.indexes;
  idx

(** [indexes t] lists the table's indexes. *)
let indexes t = t.indexes

(** [drop_index t ~name] removes the index named [name] (case-insensitive);
    returns whether one was removed. Bumps the global index epoch. *)
let drop_index t ~name =
  let key = String.lowercase_ascii name in
  let keep, dropped =
    List.partition (fun idx -> String.lowercase_ascii (Index.name idx) <> key) t.indexes
  in
  if dropped = [] then false
  else begin
    t.indexes <- keep;
    Index.bump_epoch ();
    true
  end

(** [find_index t ~cols] is an index whose key is exactly [cols], if any. *)
let find_index t ~cols =
  List.find_opt (fun idx -> Index.cols idx = cols) t.indexes

(** [lookup_index t idx key] resolves index hits to live rows, notifying the
    touch hook per fetched row. *)
let lookup_index t idx key =
  List.filter_map
    (fun rowid ->
      match Vec.get t.rows rowid with
      | Some row ->
        notify_touch t rowid;
        Some (rowid, row)
      | None -> None)
    (Index.lookup idx key)

(** [set_primary_key t cols] records the PK column positions (uniqueness is
    enforced by the executor through the PK index). *)
let set_primary_key t cols = t.primary_key <- Some cols

(** [primary_key t] is the PK column positions, if declared. *)
let primary_key t = t.primary_key

(** [clear t] removes all rows and resets indexes. *)
let clear t =
  Vec.clear t.rows;
  Vec.clear t.encs;
  t.live <- 0;
  t.version <- t.version + 1;
  List.iter Index.clear t.indexes

(** [distinct_estimate t col] estimates the number of distinct values in
    column [col] (exact count over live rows; tables are in-memory so exact
    statistics are affordable). *)
let distinct_estimate t col =
  let seen = Hashtbl.create 64 in
  Vec.iter
    (fun slot ->
      match slot with
      | Some row -> Hashtbl.replace seen (Value.hash row.(col), row.(col)) ()
      | None -> ())
    t.rows;
  max 1 (Hashtbl.length seen)
