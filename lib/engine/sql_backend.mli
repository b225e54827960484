(** The SQL-based retrieval system (§4): type (1) formulas are translated
    into a sequence of SQL statements executed on the {!Relational}
    engine (the Sybase substitute).

    Like the paper's system, it takes the atomic similarity tables as
    input (they are bulk-loaded into the database); all temporal
    processing happens in SQL: interval tables are expanded to per-id
    rows with a band join against a sequence table, conjunction is a
    UNION ALL + SUM, [until] builds threshold corridors with the
    [id - ROWNUM()] run trick, and the final result is coalesced back
    into an interval table. *)

exception Unsupported of string

type t

val create : Context.t -> t
(** Builds the sequence table [seq(id, elo, ehi)] from the context's
    extents. *)

val supports : Context.t -> bool
(** Whether the translation implements the context's conjunction mode:
    only the paper's weighted sum.  {!run} and {!run_conjunctive} refuse
    any other mode, and [Auto_backend] never picks SQL under one. *)

val run : t -> Context.t -> Htl.Ast.t -> Simlist.Sim_list.t
(** Translate and execute a type (1) formula; returns the final
    similarity list.  Temporary tables are dropped afterwards.
    @raise Unsupported on non-type (1) formulas or a conjunction mode
    other than the weighted sum. *)

val run_conjunctive : t -> Context.t -> Htl.Ast.t -> Simlist.Sim_list.t
(** §3.2/§3.3 through SQL, like the paper's system ("uses translations
    into SQL for computation of the similarity tables for any conjunctive
    formula"): the variable-binding bookkeeping (table rows, joins on
    shared variables, freeze value tables) follows the direct structure,
    while every similarity-list combination executes as a sequence of SQL
    statements.  The existential prefix is split off by
    {!Direct.split_prefix}.  Covers type (2), conjunctive and
    extended-conjunctive formulas under the weighted-sum semantics (a level operator's body
    gets its own sequence table for the target level's id space).
    @raise Unsupported on negation/disjunction or non-default conjunction
    modes. *)

val last_script : t -> string list
(** The SQL statements executed by the most recent {!run} (for
    inspection, tests and documentation). *)

val db : t -> Relational.Catalog.t

val node_label : Htl.Ast.t -> string
(** The span name the translation records for this node — shared with
    {!Explain}. *)
