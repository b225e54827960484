open Htl.Ast
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let node_label f =
  if Htl.Ast.is_non_temporal f then "type1.atom"
  else
    match f with
    | And _ -> "type1.and"
    | Until _ -> "type1.until"
    | Next _ -> "type1.next"
    | Eventually _ -> "type1.eventually"
    | _ -> "type1.other"

let span_attrs (ctx : Context.t) f () =
  [
    ("formula", string_of_int (Htl.Hcons.intern_id f));
    ("level", string_of_int ctx.level);
  ]

(* Memoized like Direct.eval: a type (1) result is a similarity list,
   cached as its closed one-row table so the cache is shared with the
   table algorithms (a type (1) subformula of a type (2) query hits the
   same entry).  Computed nodes record spans, and the stamp is taken
   before evaluating, the same way Direct does. *)
let rec eval (ctx : Context.t) f =
  let stamp = Context.cache_stamp ctx f in
  match Context.cache_find ctx f stamp with
  | Some table -> Sim_table.project_exists table
  | None ->
      let list =
        Context.with_span ctx (node_label f) ~attrs:(span_attrs ctx f)
          (fun () ->
            let list = eval_raw ctx f in
            Context.add_attr ctx "entries" (fun () ->
                string_of_int (Sim_list.length list));
            list)
      in
      Context.cache_add ctx stamp (Sim_table.of_sim_list list);
      list

(* Children of a binary node are independent — evaluate both sides
   concurrently past the cutoff (same policy as Direct.eval_pair). *)
and eval_pair (ctx : Context.t) g h =
  match Context.pool_for ctx ~n:(Context.segment_count ctx) with
  | Some pool ->
      Context.with_span ctx "pool.both" (fun () ->
          Parallel.Pool.both pool (fun () -> eval ctx g) (fun () -> eval ctx h))
  | None -> (eval ctx g, eval ctx h)

and eval_raw (ctx : Context.t) f =
  if is_non_temporal f then begin
    if free_obj_vars f <> [] || free_attr_vars f <> [] then
      unsupported "type (1) requires closed atomic units: %s"
        (Htl.Pretty.to_string f);
    Sim_table.project_exists (Atomic.resolve ctx f)
  end
  else
    match f with
    | And (g, h) ->
        let lg, lh = eval_pair ctx g h in
        Sim_list.conjunction_mode ctx.conj_mode lg lh
    | Until (g, h) ->
        let lg, lh = eval_pair ctx g h in
        Sim_list.until_merge ~threshold:ctx.threshold ~extents:(Context.extents ctx) lg lh
    | Next g -> Sim_list.next_shift ~extents:(Context.extents ctx) (eval ctx g)
    | Eventually g -> Sim_list.eventually ~extents:(Context.extents ctx) (eval ctx g)
    | Or _ | Not _ | Exists _ | Freeze _ | At_level _ ->
        unsupported "not a type (1) construct: %s" (Htl.Pretty.to_string f)
    | Atom _ -> assert false (* atoms are non-temporal *)
