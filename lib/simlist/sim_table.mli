(** Similarity tables (§3.2–3.3).

    A similarity table represents the similarity of a formula with free
    variables: each row carries an evaluation — object variables bound to
    object ids, attribute variables constrained to {!Range.t}s — and the
    similarity list of the formula under that evaluation.

    Rows bind a {e subset} of the table's columns: a variable absent from
    a row is unconstrained (it arose from padding an unmatched row in an
    outer join, and the row's list is valid for every value of that
    variable).  The paper uses plain natural joins; we additionally keep
    unmatched rows padded with the other side's empty list, which is what
    the partial-match semantics of §2.5 require (a conjunct with zero
    similarity still leaves the other conjunct's similarity standing) and
    is sound for the final [exists]-projection because all combiners are
    pointwise monotone. *)

type row = {
  objs : (string * int) list;  (** bound object variables, sorted *)
  attrs : (string * Range.t) list;  (** constrained attribute variables *)
  list : Sim_list.t;
}

type t

val create :
  obj_cols:string list ->
  attr_cols:string list ->
  max:float ->
  row list ->
  t
(** @raise Invalid_argument if a row binds a variable outside the declared
    columns, binds them unsorted, or its list's max differs from [max]. *)

val of_sim_list : Sim_list.t -> t
(** Closed-formula table: no columns, one row. *)

val obj_cols : t -> string list
val attr_cols : t -> string list
val max_sim : t -> float
val rows : t -> row list
val row_count : t -> int

val words : t -> int
(** Words the table keeps resident: 8 for the table record and its
    boxed maximum, 3 per column; per row, 7 for the row's cons cell and
    record; 3 per binding cons cell and 3 per binding pair (the variable
    names and range payloads are not counted); per list, its
    {!Sim_list.words} ([3 * length + 8]) less the 2 of its boxed
    maximum, which is the table's and counted with it.  A list, pair or cell that
    several rows share (join padding does) is counted once, so the sum
    stays within what the table reaches.  Positive for every table,
    empty ones included.  O(columns + rows + bindings) hash probes. *)

val join :
  combine:(Sim_list.t -> Sim_list.t -> Sim_list.t) ->
  t ->
  t ->
  t
(** Natural join: rows whose shared bound object variables agree and whose
    shared attribute ranges intersect are combined ([combine] is the
    conjunction or until merge — it also determines the result max);
    unmatched rows are padded with the other side's empty list.
    Hash join on the shared object columns when every row binds them all,
    else nested-loop. *)

val project_exists : t -> Sim_list.t
(** [exists x1...xn f]: the pointwise maximum over all evaluations
    ({!Sim_list.merge_max} over the rows). *)

val project_obj_var : t -> string -> t
(** [exists x f] with other variables remaining free: drop the column,
    max-merging rows that become identical. *)

val freeze_join : ?visited:int ref -> t -> var:string -> Value_table.t -> t
(** [[y <- q] f] (§3.3): joins the table with the value table of [q].
    A row pairs with the bindings of [q]'s object variables it agrees
    with; under each, its list is restricted to the union of the spans
    where [q] takes a value inside the row's range for [var] (any value
    when the row leaves [var] unconstrained), and the [var] column
    disappears.  A binding with no value in the range yields no row.

    The result has one row per evaluation: rows that come out with the
    same object binding and remaining ranges are max-merged, as {!join}
    does.  Each row is restricted once, to the union of its matched
    values' spans (an attribute function has one value per segment, so
    these are disjoint).  Splitting an evaluation per value would cut
    every [until] corridor at a change of [q].

    Cost O(rows + matched values + list entries), plus a binary search
    per row in its binding's values (sorted once).  [visited], when
    given, is increased by the number of value rows read: the matched
    ones plus the one that ends each run.
    @raise Invalid_argument if the spans of the values one row matches
    overlap. *)

val filter_rows : (row -> bool) -> t -> t

val pp : Format.formatter -> t -> unit
