(** Similarity-based evaluation of atomic (non-temporal) HTL formulas —
    the reimplementation of the picture retrieval system the paper builds
    on ([27, 25, 2]).

    Given a non-temporal formula, produces the {!Simlist.Sim_table} the
    video algorithms of §3 consume: one row per relevant evaluation of
    the free object variables (plus one {e wildcard} row standing for
    every object not mentioned in the data — its bindings are simply
    absent), attribute-variable columns carrying satisfying ranges, and a
    similarity list over the segments of the chosen level.

    Scoring: the similarity of a formula at a segment is the weighted sum
    of its satisfied atomic conditions ({!Weights}); a type condition
    [type(x) = "T"] earns taxonomy-graded partial credit; inner
    existentials score the best local witness; the maximum similarity is
    the total weight. *)

exception Unsupported of string
(** Raised on formulas outside the supported fragment: temporal or level
    operators, negation/disjunction, comparisons between two attribute
    variables, non-integer/non-string frozen values, or row blow-up past
    [max_rows]. *)

type config = {
  taxonomy : Taxonomy.t;
  weights : Weights.t;
  max_rows : int;  (** evaluation-enumeration safety cap *)
  prune : bool;
      (** when true (the default), base scans restrict to the candidate
          segments of a {!Pruning} plan whenever the formula provably
          scores 0 elsewhere; false forces full scans (the [--no-index]
          debugging mode) *)
}

val default_config : config

type domain = { attr : string; obj : string option }
(** The freeze enclosing a free attribute variable [y]: [[y <- attr(obj)]],
    or [[y <- attr]] for a segment attribute when [obj] is [None].  That
    freeze keeps only the rows whose range for [y] holds a value the
    attribute takes, so only those rows need to be built. *)

val eval :
  ?config:config ->
  ?pool:Parallel.Pool.t ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?stats:Obs.Stats.t ->
  ?index:Index.t ->
  ?domains:(string * domain) list ->
  Video_model.Store.t ->
  level:int ->
  Htl.Ast.t ->
  Simlist.Sim_table.t
(** Evaluate a non-temporal formula over all segments of [level].
    With [pool], the per-segment scoring scans (the dominant cost on
    large levels) chunk the segment range across the pool's domains;
    scoring only reads the store, so results are identical.  Callers
    decide the sequential cutoff — pass [pool] only when the level is
    big enough to be worth it (see {!Engine.Context.pool_for}).
    With [index], reuse a prebuilt index for this store and [level]
    (normally the context registry's — [Invalid_argument] on a level
    mismatch); otherwise one is built here.
    A candidate set covering at least 65 % of the level is not worth
    its candidate path: [eval] scans the level in full then, as with
    [prune = false].
    With [tracer], the scan records a ["picture.eval"] span (level,
    segment, combination and pruning counts — [pruning] is the number
    of candidates, or ["full"] — and on closing the [rows]
    emitted, the elementary [regions] they were built for and the
    scorer calls, [scored], plus [regions_dropped] when [domains] is
    given); with [metrics], every scorer call counts
    toward the [picture.segments_scanned.l<level>] counter — base scans
    and bound-candidate scans alike — and every pruned base fill (one
    per batch of new region tuples) records
    [picture.index.candidates] / [picture.index.pruned_segments].
    With [stats], every evaluation folds the atom's observed pruning
    selectivity (candidates ÷ level segments; 1 for a full scan) into
    {!Obs.Stats.record_atom}.

    With [domains], the region rows of a free attribute variable that
    has one are built only where they hold a value of its domain: under
    a binding of the domain's object variable to an object, the values
    {!Index.obj_attr_points} lists for it; for a segment attribute, the
    values {!Index.seg_attr_points} lists.  A binding that wildcards the
    object variable, or a formula that does not bind it, keeps every
    region.  The [regions_dropped] span attribute counts the region
    tuples left out.

    Scoring goes through the formula compiled once per evaluation
    against the index's columnar view ({!Index.columns}; see
    {!scorer}).  A bound row is scored only at the segments where one of
    its objects appears, or, under a relationship atom, where a stored
    relationship names one of them; elsewhere it equals the row with every object
    variable wildcarded, whose list it overlays
    ({!Simlist.Sim_list.overlay}), and it is dropped when it equals that
    row everywhere.  All region rows of a binding come from one sweep
    in region order.  At each segment, a region copies the previous
    region's score when their representatives compare the same way
    with every value the variable is compared with there, so with one
    attribute variable a segment with k such values costs at most
    2k + 1 scorer calls per binding.
    @raise Unsupported as described above. *)

val score_at :
  ?config:config ->
  ?attrs:(string * Metadata.Value.t option) list ->
  Video_model.Store.t ->
  level:int ->
  id:int ->
  env:(string * int) list ->
  Htl.Ast.t ->
  float
(** Similarity of a closed-after-binding non-temporal formula at one
    segment — the one-picture scoring primitive (exposed for tests and
    the naive reference evaluator).  [attrs] supplies values for free
    attribute variables ([None] = the frozen attribute was undefined). *)

val scorer :
  ?config:config ->
  ?attrs:(string * Metadata.Value.t option) list ->
  ?index:Index.t ->
  Video_model.Store.t ->
  level:int ->
  env:(string * int) list ->
  Htl.Ast.t ->
  id:int ->
  float
(** The compiled scorer {!eval} scores with, under one binding:
    [scorer store ~level ~env ~attrs f] compiles [f] once against the
    columnar view of [index] (built when absent), and the result scores
    any segment [id] of [level] — equal to {!score_at} with the same
    arguments, bit for bit, and raising the same [Unsupported] on an
    unbound attribute variable when that is first evaluated.  The
    closure reuses one environment, so it must not be shared between
    domains.
    @raise Invalid_argument when [index] is of another level or covers
    fewer segments than the store holds at [level]. *)

val eval_dense :
  ?config:config ->
  ?index:Index.t ->
  ?domains:(string * domain) list ->
  Video_model.Store.t ->
  level:int ->
  Htl.Ast.t ->
  Simlist.Sim_table.t
(** The oracle for {!eval}: the same rows, each built densely from
    {!score_at} at every segment of the level and
    {!Simlist.Sim_list.of_dense}, a bound row dropped when it equals the
    wildcard row everywhere, and the region rows filtered by [domains]
    as in {!eval}.  O(rows × segments); for tests and the
    index bench's check. *)

val max_similarity : ?config:config -> Htl.Ast.t -> float
(** Total weight of the formula. *)
