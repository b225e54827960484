(** The general direct algorithms (§3.2–§3.3 + level operators): inductive
    computation of similarity {e tables} for type (2), conjunctive and
    extended conjunctive formulas.

    Subformulas with free variables evaluate to tables whose rows are
    evaluations; [And]/[Until] are natural joins combining the rows'
    lists; the freeze quantifier joins against a value table extracted
    from the store; [at-level] operators evaluate the body over each
    parent's descendant sequence and lift the value at the first
    descendant back to the parent. *)

exception Unsupported of string

val eval : Context.t -> Htl.Ast.t -> Simlist.Sim_table.t
(** Evaluate a (possibly open) conjunctive-fragment formula at the
    context's level. *)

val eval_closed : Context.t -> Htl.Ast.t -> Simlist.Sim_list.t
(** Strip the existential prefix, evaluate the body, project. *)

val value_table :
  Context.t -> attr:string -> obj:string option -> Simlist.Value_table.t
(** The §3.3 value table of an attribute function over the context's
    level, with [obj] as its object column: read once per finalized
    index ({!Picture.Index.frozen_values}) and renamed per call.
    Shared with the SQL backend. *)

val freeze :
  Context.t ->
  Simlist.Sim_table.t ->
  var:string ->
  Simlist.Value_table.t ->
  Simlist.Sim_table.t
(** {!Simlist.Sim_table.freeze_join}, recording [value_rows] and
    [visited] (the value rows the join read) on the enclosing span.
    Shared with the SQL backend. *)

(** {1 Level-operator plumbing} (shared with the SQL backend) *)

val resolve_level : Context.t -> Htl.Ast.level_sel -> int
(** @raise Unsupported on an unknown level name or a missing store. *)

val at_level_extents :
  Context.t -> target:int -> Simlist.Interval.t list * Simlist.Extent.t
(** Per-parent descendant spans at [target], and the extent partition
    they form (the proper sequences the body evaluates over). *)

val lift_to_parents :
  Simlist.Interval.t list -> Simlist.Sim_list.t -> Simlist.Sim_list.t
(** Map a target-level similarity list back to the parent level: the
    parent's value is the list's value at its first descendant.  The
    spans are the parents' descendant spans in parent order, as
    {!at_level_extents} returns them (a tiling, so sorted); one walk of
    the list serves them all, O(p + l). *)

val join_order : Context.t -> Htl.Ast.t -> n:int -> int list
(** The order {!eval} joins the [n] conjuncts of an [And] chain in, as
    positions of {!Planner.conjuncts}: the attached plan's
    {!Planner.join_order}, or written order when the context carries no
    plan (planner off).  Exposed so {!Explain} shows the same order. *)

val node_label : Htl.Ast.t -> string
(** The span name {!eval} records for this node (see DESIGN.md §2.14);
    exposed so {!Explain} builds its tree with the same labels. *)
