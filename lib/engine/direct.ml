open Htl.Ast
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table
module Interval = Simlist.Interval
module Extent = Simlist.Extent
module Store = Video_model.Store

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let require_store (ctx : Context.t) what =
  match ctx.store with
  | Some store -> store
  | None -> unsupported "%s requires a video store" what

let map_lists f table =
  let max = Sim_table.max_sim table in
  Sim_table.create
    ~obj_cols:(Sim_table.obj_cols table)
    ~attr_cols:(Sim_table.attr_cols table)
    ~max
    (List.filter_map
       (fun (r : Sim_table.row) ->
         let list = f r.list in
         if Sim_list.is_empty list && r.attrs = [] then None
         else Some { r with list })
       (Sim_table.rows table))

(* value table of attribute function [attr] (of an object variable or of
   the segment itself) over the context's level: the registry's
   finalized index keeps it from the first query that freezes [attr] at
   this level, and each call names its object column [obj] *)
let value_table (ctx : Context.t) ~attr ~obj =
  let store = require_store ctx "the freeze quantifier" in
  let idx = Option.get (Context.index ctx) in
  match Picture.Index.frozen_values idx store ~attr ~objects:(obj <> None) with
  | Error (`Float id) ->
      unsupported
        "frozen attribute %s has a float value at segment %d (§3.3 \
         restricts attribute variables to integers)"
        attr id
  | Error `Bool -> unsupported "frozen attribute %s has a boolean value" attr
  | Ok rows ->
      let row (r : Picture.Index.value_row) =
        let objs =
          match (obj, r.oid) with Some x, Some oid -> [ (x, oid) ] | _ -> []
        in
        { Simlist.Value_table.objs; value = r.value; spans = r.spans }
      in
      Simlist.Value_table.create ~obj_cols:(Option.to_list obj)
        (List.map row rows)

(* [[var <- q] body] from the body's table and [q]'s value table, noting
   on the enclosing span how many value rows there were and how many the
   join read. *)
let freeze (ctx : Context.t) table ~var vt =
  let visited = ref 0 in
  let frozen = Sim_table.freeze_join ~visited table ~var vt in
  Context.add_attr ctx "value_rows" (fun () ->
      string_of_int (List.length (Simlist.Value_table.rows vt)));
  Context.add_attr ctx "visited" (fun () -> string_of_int !visited);
  frozen

(* at-level evaluation: per-parent descendant sequences.  The per-parent
   span walk chunks across the pool — each walk reads the store only. *)
let at_level_extents (ctx : Context.t) ~target =
  let store = require_store ctx "a level operator" in
  let parents = Store.count_at store ~level:ctx.level in
  let span_of i =
    match Store.descendants_span store ~level:ctx.level ~id:(i + 1) ~target with
    | Some span -> span
    | None ->
        unsupported "segment %d has no descendants at level %d" (i + 1) target
  in
  let spans =
    match Context.pool_for ctx ~n:parents with
    | Some pool ->
        Context.with_span ctx "pool.parents"
          ~attrs:(fun () -> [ ("n", string_of_int parents) ])
          (fun () ->
            Array.to_list (Parallel.Pool.parallel_init pool parents span_of))
    | None -> List.init parents span_of
  in
  (spans, Extent.of_spans spans)

(* lift a level-[target] similarity list back to the parent level: the
   parent's value is the list's value at its first descendant.  The
   spans tile the target level in parent order, so one walk of the
   entries serves every parent. *)
let lift_to_parents spans list =
  let rec go i spans entries acc =
    match spans with
    | [] -> List.rev acc
    | span :: rest ->
        let first = Interval.lo span in
        let rec drop = function
          | (iv, _) :: tl when Interval.hi iv < first -> drop tl
          | l -> l
        in
        let entries = drop entries in
        let acc =
          match entries with
          | (iv, v) :: _ when Interval.lo iv <= first ->
              (Interval.point i, v) :: acc
          | _ -> acc
        in
        go (i + 1) rest entries acc
  in
  Sim_list.of_entries ~max:(Sim_list.max_sim list)
    (go 1 spans (Sim_list.entries list) [])

let resolve_level (ctx : Context.t) = function
  | Next_level -> ctx.level + 1
  | Level_index i -> i
  | Level_name name -> (
      let store = require_store ctx "a named level operator" in
      match Store.level_index store name with
      | Some i -> i
      | None -> unsupported "unknown level %S" name)

(* The order an [And] chain's conjuncts join in, as positions of
   {!Planner.conjuncts}: the plan's (sparsest estimated support first)
   when the context carries one, written order otherwise. *)
let join_order (ctx : Context.t) f ~n =
  Option.value
    (Option.bind ctx.plan (fun plan -> Planner.join_order plan f))
    ~default:(List.init n Fun.id)

(* Span labels name the node kind; the ["formula"] attribute carries the
   hash-consed id so EXPLAIN can match spans back to subformulas. *)
let node_label f =
  if is_non_temporal f then "direct.atom"
  else
    match f with
    | And _ -> "direct.and"
    | Until _ -> "direct.until"
    | Next _ -> "direct.next"
    | Eventually _ -> "direct.eventually"
    | Exists _ -> "direct.exists"
    | Freeze _ -> "direct.freeze"
    | At_level _ -> "direct.at_level"
    | Or _ -> "direct.or"
    | Not _ -> "direct.not"
    | Atom _ -> "direct.atom"

let span_attrs (ctx : Context.t) f () =
  [
    ("formula", string_of_int (Htl.Hcons.intern_id f));
    ("level", string_of_int ctx.level);
  ]

(* Every eval goes through the context's subformula cache: the key is the
   hash-consed formula id plus level, extent partition and store version,
   so overlapping queries reuse each other's intermediate tables and any
   store mutation invalidates (see Engine.Cache).  The stamp is taken
   once, before evaluating, so a result racing a mutation is filed under
   the version it may predate.  [eval_raw] recurses back through [eval],
   memoizing every level of the tree.  A computed (non-cached) node
   records a span; cache hits record none — EXPLAIN shows them as
   "cached". *)
let rec eval (ctx : Context.t) f =
  let stamp = Context.cache_stamp ctx f in
  match Context.cache_find ctx f stamp with
  | Some table -> table
  | None ->
      let table =
        Context.with_span ctx (node_label f) ~attrs:(span_attrs ctx f)
          (fun () ->
            let table = eval_raw ctx f in
            Context.add_attr ctx "rows" (fun () ->
                string_of_int (Sim_table.row_count table));
            table)
      in
      Context.cache_add ctx stamp table;
      table

(* Independent children of a binary node evaluate concurrently when the
   extent is past the cutoff.  Siblings sharing a subformula may both
   compute it before either caches it — duplicated work, never a wrong
   result (the cache keeps whichever lands last; both are equal). *)
and eval_pair (ctx : Context.t) g h =
  match Context.pool_for ctx ~n:(Context.segment_count ctx) with
  | Some pool ->
      Context.with_span ctx "pool.both" (fun () ->
          Parallel.Pool.both pool (fun () -> eval ctx g) (fun () -> eval ctx h))
  | None -> (eval ctx g, eval ctx h)

and eval_raw (ctx : Context.t) f =
  if is_non_temporal f then Atomic.resolve ctx f
  else
    match f with
    | And _ ->
        (* the conjunction combiners are associative and commutative, so
           the join order never changes the result (property-tested) *)
        let subs = Planner.conjuncts f in
        let tables =
          Array.of_list
            (match Context.pool_for ctx ~n:(Context.segment_count ctx) with
            | Some pool ->
                Context.with_span ctx "pool.conjuncts"
                  ~attrs:(fun () ->
                    [ ("n", string_of_int (List.length subs)) ])
                  (fun () -> Parallel.Pool.parallel_map pool (eval ctx) subs)
            | None -> List.map (eval ctx) subs)
        in
        let order = join_order ctx f ~n:(Array.length tables) in
        Context.add_attr ctx "join_order" (fun () ->
            String.concat "," (List.map string_of_int order));
        Context.add_attr ctx "join_rows" (fun () ->
            String.concat ","
              (List.map
                 (fun i -> string_of_int (Sim_table.row_count tables.(i)))
                 order));
        let combine = Sim_list.conjunction_mode ctx.conj_mode in
        (match order with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun acc i -> Sim_table.join ~combine acc tables.(i))
              tables.(first) rest)
    | Until (g, h) ->
        let tg, th = eval_pair ctx g h in
        Sim_table.join
          ~combine:(fun lg lh ->
            Sim_list.until_merge ~threshold:ctx.threshold ~extents:(Context.extents ctx)
              lg lh)
          tg th
    | Next g -> map_lists (Sim_list.next_shift ~extents:(Context.extents ctx)) (eval ctx g)
    | Eventually g ->
        map_lists (Sim_list.eventually ~extents:(Context.extents ctx)) (eval ctx g)
    | Exists (x, g) ->
        Sim_table.project_obj_var (eval (Context.shadow_obj_var ctx x) g) x
    | Freeze { var; attr; obj; body } ->
        (* the body's atoms build only the region rows this freeze keeps *)
        let vt = value_table ctx ~attr ~obj in
        freeze ctx (eval (Context.with_domain ctx ~var { attr; obj }) body) ~var vt
    | At_level (sel, g) ->
        let target = resolve_level ctx sel in
        if target <= ctx.level then
          unsupported "level operator must descend (at level %d from %d)"
            target ctx.level;
        let spans, extents = at_level_extents ctx ~target in
        let inner = eval (Context.with_level ctx ~level:target ~extents) g in
        map_lists (lift_to_parents spans) inner
    | Or _ -> unsupported "disjunction has no similarity semantics"
    | Not _ -> unsupported "negation has no similarity semantics"
    | Atom _ -> assert false (* atoms are non-temporal *)

let eval_closed ctx f =
  let rec strip = function
    | Exists (_, g) -> strip g
    | g -> g
  in
  Sim_table.project_exists (eval ctx (strip f))
