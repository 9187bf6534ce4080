(* Path expressions over a loaded composite object (§3.5).

   A path denotes a subset of the tuples of its target node: the tuples
   reachable from the start designator along the named relationships, with
   qualified steps filtering intermediate tuples. Traversal direction is
   inferred per step — forward when the current node is the relationship's
   parent, backward when it is the child; cyclic relationships are
   disambiguated by explicit node steps (roles).

   SUCH THAT predicates are evaluated here too: they are SQL expressions
   extended with [COUNT(path)] and [EXISTS path] atoms, evaluated against
   an environment binding restriction variables to cache tuples. *)

open Relational
open Xnf_ast

exception Path_error of string

let err fmt = Fmt.kstr (fun s -> raise (Path_error s)) fmt

(** A variable binding: a specific tuple of a node. *)
type binding = { b_node : string; b_pos : int }

(** Evaluation environment: restriction / path variables. *)
type env = (string * binding) list

let resolve_col cache (env : env) qualifier name =
  let find_in (var, b) =
    let ni = Cache.node cache b.b_node in
    match Schema.find_opt ni.Cache.ni_schema name with
    | Some i -> Some (var, b, i)
    | None -> None
  in
  match qualifier with
  | Some q -> begin
    match List.assoc_opt (String.lowercase_ascii q) env with
    | Some b -> begin
      let ni = Cache.node cache b.b_node in
      match Schema.find_opt ni.Cache.ni_schema name with
      | Some i -> (b, i)
      | None -> err "[XNF007] no column %s in component %s" name b.b_node
    end
    | None -> err "[XNF014] unknown variable %s in path predicate" q
  end
  | None -> begin
    match List.filter_map find_in env with
    | [ (_, b, i) ] -> (b, i)
    | [] -> err "[XNF007] unknown column %s in path predicate" name
    | _ :: _ -> err "[XNF007] ambiguous column %s in path predicate" name
  end

(** [eval_xexpr cache env e] evaluates a SUCH THAT predicate expression;
    boolean results use 3VL encoding (Bool/Null) as in {!Expr.eval}. *)
let rec eval_xexpr cache (env : env) (e : xexpr) : Value.t =
  match e with
  | X_col (q, n) ->
    let b, i = resolve_col cache env q (String.lowercase_ascii n) in
    let ni = Cache.node cache b.b_node in
    Cache.col (Cache.tuple ni b.b_pos) i
  | X_lit v -> v
  | X_cmp (op, a, b) -> begin
    match Value.compare_sql (eval_xexpr cache env a) (eval_xexpr cache env b) with
    | None -> Value.Null
    | Some c ->
      let r =
        match op with
        | Expr.Eq -> c = 0
        | Expr.Ne -> c <> 0
        | Expr.Lt -> c < 0
        | Expr.Le -> c <= 0
        | Expr.Gt -> c > 0
        | Expr.Ge -> c >= 0
      in
      Value.Bool r
  end
  | X_arith (op, a, b) ->
    let op =
      match op with
      | Expr.Add -> `Add
      | Expr.Sub -> `Sub
      | Expr.Mul -> `Mul
      | Expr.Div -> `Div
      | Expr.Mod -> `Mod
    in
    Value.arith op (eval_xexpr cache env a) (eval_xexpr cache env b)
  | X_neg a -> begin
    match eval_xexpr cache env a with
    | Value.Int i -> Value.Int (-i)
    | Value.Float f -> Value.Float (-.f)
    | Value.Null -> Value.Null
    | v -> err "cannot negate %s" (Value.to_string v)
  end
  | X_and (a, b) ->
    Expr.value_of_truth
      (Value.truth_and (eval_pred cache env a) (eval_pred cache env b))
  | X_or (a, b) ->
    Expr.value_of_truth (Value.truth_or (eval_pred cache env a) (eval_pred cache env b))
  | X_not a -> Expr.value_of_truth (Value.truth_not (eval_pred cache env a))
  | X_is_null a -> Value.Bool (Value.is_null (eval_xexpr cache env a))
  | X_is_not_null a -> Value.Bool (not (Value.is_null (eval_xexpr cache env a)))
  | X_like (a, p) -> begin
    match eval_xexpr cache env a, eval_xexpr cache env p with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | Value.Str s, Value.Str pattern -> Value.Bool (Expr.like_match ~pattern s)
    | _ -> err "LIKE on non-strings"
  end
  | X_in_list (a, items) ->
    let v = eval_xexpr cache env a in
    if Value.is_null v then Value.Null
    else begin
      let rec go unknown = function
        | [] -> if unknown then Value.Null else Value.Bool false
        | item :: rest -> begin
          match Value.compare_sql v (eval_xexpr cache env item) with
          | Some 0 -> Value.Bool true
          | Some _ -> go unknown rest
          | None -> go true rest
        end
      in
      go false items
    end
  | X_fn (name, args) -> Expr.apply_fn name (List.map (eval_xexpr cache env) args)
  | X_count_path p ->
    let _, positions = eval_path cache env p in
    Value.Int (List.length positions)
  | X_exists_path p ->
    let _, positions = eval_path cache env p in
    Value.Bool (positions <> [])
  | X_param i -> err "unsubstituted parameter ?%d in SUCH THAT predicate" (i + 1)

and eval_pred cache env e = Expr.truth_of_value (eval_xexpr cache env e)

(** [eval_path cache env p] evaluates a path, returning the target node
    name and the distinct live positions it denotes. The start designator
    is a bound variable (tuple-rooted) or a node name (set-rooted). *)
and eval_path cache (env : env) (p : path) : string * int list =
  let start = String.lowercase_ascii p.p_start in
  let node_name, positions =
    match List.assoc_opt start env with
    | Some b -> (b.b_node, [ b.b_pos ])
    | None -> begin
      match Cache.node_opt cache start with
      | Some ni -> (start, List.map (fun t -> t.Cache.t_pos) (Cache.live_tuples ni))
      | None -> err "[XNF014] path start %s is neither a variable nor a component table" p.p_start
    end
  in
  List.fold_left (step cache env) (node_name, positions) p.p_steps

and step cache env (current_node, positions) s =
  match s with
  | Step_edge name -> begin
    (* the parser cannot distinguish bare node steps from edge steps; an
       edge lookup miss falls back to a node checkpoint *)
    match Cache.edge_opt cache name with
    | Some ei ->
      (* the direction is fixed once per step: forward from the parent
         side (a cyclic edge's own node included), backward from the
         child side *)
      let current = String.lowercase_ascii current_node in
      let forward = String.equal current ei.Cache.ei_parent in
      let target = if forward then ei.Cache.ei_child else ei.Cache.ei_parent in
      if positions = [] then (target, [])
      else begin
        if not (forward || String.equal current ei.Cache.ei_child) then
          raise
            (Cache.Cache_error
               (Printf.sprintf "relationship %s does not involve %s" ei.Cache.ei_name current));
        let related pos =
          if forward then Cache.children cache ei pos else Cache.parents cache ei pos
        in
        let out =
          match positions with
          | [ pos ] -> related pos
          | _ -> List.fold_left (fun acc pos -> List.rev_append (related pos) acc) [] positions
        in
        (target, List.sort_uniq Int.compare out)
      end
    | None -> begin
      match Cache.node_opt cache name with
      | Some _ ->
        step cache env (current_node, positions)
          (Step_node { sn_node = name; sn_var = None; sn_pred = None })
      | None -> err "[XNF013] unknown relationship or component %s in path" name
    end
  end
  | Step_node { sn_node; sn_var; sn_pred } -> begin
    let sn = String.lowercase_ascii sn_node in
    if not (String.equal sn (String.lowercase_ascii current_node)) then
      err "[XNF015] path step %s does not match current component %s" sn_node current_node;
    match sn_pred with
    | None -> (current_node, positions)
    | Some pred ->
      let var = Option.value ~default:sn sn_var in
      let keep pos =
        let env = (String.lowercase_ascii var, { b_node = sn; b_pos = pos }) :: env in
        Value.is_true (eval_pred cache env pred)
      in
      (current_node, List.filter keep positions)
  end

(** [eval_node_restriction cache ~node ~var pred] is the set of live
    positions of [node] satisfying [pred] (with [var] bound per tuple). *)
let eval_node_restriction cache ~node ~var pred =
  let ni = Cache.node cache node in
  let var = String.lowercase_ascii (Option.value ~default:node var) in
  List.filter_map
    (fun t ->
      let env = [ (var, { b_node = ni.Cache.ni_name; b_pos = t.Cache.t_pos }) ] in
      if Value.is_true (eval_pred cache env pred) then Some t.Cache.t_pos else None)
    (Cache.live_tuples ni)
