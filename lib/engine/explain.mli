(** EXPLAIN: the shape of a query's evaluation, as a tree.

    A report shows the chosen backend and formula class, the evaluation
    tree the backend would walk (one node per subformula, labelled with
    the span names of DESIGN.md §2.14), and — when built from an
    analyzed run ({!Query.explain} with [~analyze:true]) — per-node wall
    times and recorded attributes (row counts, an And chain's
    ["join_order"], SQL statement counts).  A node the subformula cache
    served shows as [Cached]: no span was recorded because nothing ran.

    With the SQL backend and [~analyze:true], the report also carries
    the executed script re-parsed into {!Relational.Plan} operator
    trees, one per statement.

    Use {!Query.explain} — the builders here are its plumbing, exposed
    for tests. *)

type timing =
  | Untimed  (** static explain: nothing ran *)
  | Cached  (** analyzed run, no span: the cache served this node *)
  | Timed of float  (** seconds *)

type node = {
  label : string;  (** the evaluator's span name, or a plan operator *)
  attrs : (string * string) list;
  timing : timing;
  children : node list;
}

type report = {
  backend : string;
      (** the concrete backend that runs: ["direct"] or ["sql"] (an
          [Auto_backend] request resolves before the report is built) *)
  backend_reason : string option;
      (** why the planner picked [backend] — present only for
          [Auto_backend] requests: the estimated cost of each backend,
          or their observed latency EWMAs once both have run *)
  cls : Htl.Classify.cls;
  formula : string;  (** pretty-printed *)
  analyzed : bool;
  tree : node;
  sql_script : node list;
      (** one node per executed SQL statement (analyzed SQL runs only);
          [Create_table_as]/[Select] statements carry their
          {!Relational.Plan} tree as children *)
  total_s : float option;  (** whole-query wall time (analyzed only) *)
  resources : Obs.Resource.delta option;
      (** GC allocation/collection delta of the analyzed run (analyzed
          only) — {!Obs.Resource.measure} around the whole query *)
}

(** {1 Tree builders} *)

type lookup = Htl.Ast.t -> (Obs.Trace.span * (string * string) list) option
(** A subformula's recorded span, if it has one left, with the
    attributes its node lifts from the spans it encloses — see
    {!span_lookup}. *)

val direct_tree :
  Context.t -> ?take:lookup -> Htl.Ast.t -> node
(** Mirror of {!Direct.eval}'s dispatch: an [And] chain is one node
    whose children are its conjuncts in {!Direct.join_order}.  [take],
    when given, yields each subformula's recorded span — use
    {!span_lookup}. *)

val sql_tree :
  Context.t -> ?take:lookup -> Htl.Ast.t -> node
(** Mirror of the SQL translation's dispatch. *)

val span_lookup : Obs.Trace.span list -> lookup
(** [span_lookup spans] consumes spans by their ["formula"] attribute
    (the hash-consed subformula id) in recorded order: each call with a
    formula pops its next unconsumed span, so a subformula occurring
    twice in a tree gets its computed span once and reads as cached the
    second time.  With the span come the attributes its node shows from
    the spans it encloses: an atom's [regions_dropped], from its
    ["picture.eval"] span. *)

val script_nodes : string list -> node list
(** Parse executed SQL statements ({!Sql_backend.last_script}) and
    compile each to its {!Relational.Plan} tree. *)

(** {1 Rendering} *)

val pp_node : Format.formatter -> node -> unit
val pp : Format.formatter -> report -> unit
val to_string : report -> string
