(** Similarity lists (§3.1 of the paper).

    A similarity list records, for one formula, the similarity value of
    every video segment: a sorted list of disjoint entries
    [([beg, end], act)] plus a single maximum value [max] shared by all
    entries (the paper notes that [max] depends only on the formula).
    Ids absent from every entry have actual similarity 0 — only non-zero
    ids are stored.

    Canonical form (maintained by every operation): entries sorted by
    interval, pairwise disjoint, actual values in [(0, max]], and no two
    adjacent intervals carrying the same value.  Every operation below
    reads its canonical inputs in one left-to-right pass and builds
    canonical output as it goes, with no re-sort and no second
    normalisation pass.

    The entries are packed into flat arrays trimmed to their count —
    the bounds as interleaved ints, the values as unboxed floats — so a
    list of n entries keeps 3n + 8 words resident ({!words}).  Each
    operation fills an output buffer of its own; none is shared between
    calls, so concurrent threads may run any of them. *)

type t

type entry = Interval.t * float

val empty : max:float -> t
(** No segment has non-zero similarity. *)

(** {1 Reading entries by index}

    Entry [i] (from 0, in id order) covers [[lo t i, hi t i]] at
    [value t i].  The hot consumers (top-k, the encoders, the SQL
    loader) scan these instead of building an {!entries} list.
    @raise Invalid_argument when [i] is not below {!length}. *)

val lo : t -> int -> int
val hi : t -> int -> int
val value : t -> int -> float

val ranks_above : t -> int -> lo:int -> t -> int -> lo:int -> bool
(** [ranks_above a i ~lo:alo b j ~lo:blo]: entry [i] of [a], taken to
    start at [alo], ranks above entry [j] of [b], taken to start at
    [blo] — a larger value, or an equal one that starts earlier.  The
    top-k ranking, read in place: a caller comparing many entries boxes
    no float. *)

val next_above : t -> off:int -> from:int -> t -> int -> lo:int -> int
(** [next_above t ~off ~from u j ~lo]: the first index [i >= from]
    whose entry, its start shifted by [off], {!ranks_above} entry [j]
    of [u] starting at [lo], or [length t] when none does.  The filter
    of a top-k scan, as one loop over the packed arrays. *)

val words : t -> int
(** Words the list keeps resident: [3 * length t + 8]. *)

val of_entries : max:float -> entry list -> t
(** Builds a canonical list: drops non-positive values, clamps values
    within float tolerance above [max], coalesces adjacent equal-valued
    intervals.  Canonical input is kept as it is and ordered input is
    not sorted: one O(n) check, and an O(n log n) sort only for input
    out of order.
    @raise Invalid_argument if intervals overlap, if an actual value
    exceeds [max] (beyond float tolerance), or if [max < 0]. *)

val entries : t -> entry list
(** The boundary form for tests, workload builders and printing; the
    served path reads entries by index. *)

val max_sim : t -> float

val length : t -> int
(** Number of entries (the paper's [length(L)]).  O(1). *)

val is_empty : t -> bool

val covered : t -> int
(** Total number of ids with non-zero similarity. *)

val value_at : t -> int -> float
(** Actual similarity at an id (0 when absent).  A binary search. *)

val sim_at : t -> int -> Sim.t

val fraction_at : t -> int -> float

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 The paper's merge algorithms} *)

val conjunction : t -> t -> t
(** [f = g /\ h] (§3.1): modified merge of the two sorted lists; where
    both cover an id the actual values add; where only one covers it the
    value is kept (partial satisfaction).  Result max is the sum of the
    input maxima.  O(|g| + |h|). *)

(** Alternative conjunction semantics — §5 lists "other similarity
    functions, other than the fractional similarity function" as future
    work; these are two standard candidates.  All three share the result
    maximum [m1 + m2] so the until-threshold machinery is unaffected. *)
type conj_mode =
  | Weighted_sum  (** the paper's rule: [a1 + a2] *)
  | Min_fraction  (** fuzzy AND: fraction is [min (f1, f2)] *)
  | Product_fraction  (** probabilistic AND: fraction is [f1 *. f2] *)

val conjunction_mode : conj_mode -> t -> t -> t
(** [conjunction_mode Weighted_sum] = {!conjunction}. *)

val conjunction_many : t list -> t
(** Left fold of {!conjunction}.
    @raise Invalid_argument on the empty list. *)

val next_shift : extents:Extent.t -> t -> t
(** [f = next g]: entry intervals shift left by one, clipped so that no
    id reads its successor across an extent boundary; the last id of each
    extent gets similarity 0.  O(|g|), plus a binary search over the
    extents per entry. *)

val until_merge : ?threshold:float -> extents:Extent.t -> t -> t -> t
(** [until_merge ~extents g h] is [f = g until h] (§3.1): g entries whose fractional similarity is
    below [threshold] (default 0.5) are discarded, the rest coalesce into
    corridors; inside a corridor [[b,e]] the value at [i] is the maximum
    actual h value at any id in [[i, e+1]] (clipped to the extent); ids
    outside every corridor keep the h value at the id itself (the until
    semantics allow [u'' = u]).  Result max is [max_sim h].
    O(|g| + |h|) in one pass, plus a binary search over the extents per
    corridor. *)

val eventually : extents:Extent.t -> t -> t
(** [f = eventually g = true until g]: per-extent suffix maximum.
    O(|g|), plus a binary search per extent. *)

val merge_max : t list -> t
(** Pointwise maximum of m lists sharing one [max] — the final step of
    the type (2) algorithm (m-way merge).  One pass: a dense pass over
    the lists' span when that span is within a small multiple of their
    l entries, else a sweep over entry boundaries in O(l log m).
    @raise Invalid_argument on the empty list or differing maxima. *)

val merge_max_pairwise : t list -> t
(** Same result via an O(l·m) left fold of two-list maxima — the
    oracle {!merge_max} is tested against and the ablation bench's
    baseline. *)

val restrict : t -> Interval.t list -> t
(** Keep only ids inside the given sorted disjoint intervals (used by the
    freeze-quantifier join, §3.3). *)

val scale_max : t -> max:float -> t
(** Re-declare the maximum (e.g. after an existential projection changed
    the formula but not the attainable maximum).
    @raise Invalid_argument if any actual value would exceed the new
    maximum. *)

(** {1 Concatenating shifted lists}

    The gather step of sharded evaluation: shard [i]'s list holds ids
    local to the shard, and adding its offset [offi] moves them into
    one global numbering.  The shifted lists are already sorted,
    disjoint, positive and within the shared maximum, so only the
    boundaries between consecutive non-empty lists need a look: the last
    entry of one and the first of the next must not overlap, and
    coalesce when they abut with equal values — exactly what
    {!of_entries} would do to their concatenation. *)

val concat : (t * int) list -> t
(** [concat [(l0, off0); (l1, off1); ...]]: every list's entries shifted
    by its offset, in list order, as one canonical list — equal to
    {!of_entries} of the shifted entries.  O(m) for m entries.
    @raise Invalid_argument on an empty list of lists, differing maxima,
    or shifted lists that overlap or come out of order. *)

val concat_length : (t * int) list -> int
(** [length (concat parts)] by the same boundary walk, without building
    the list: the sum of the lengths minus one per coalescing boundary.
    O(number of lists): it reads only each list's length, first and last
    entry.
    @raise Invalid_argument as {!concat}. *)

(** {1 Dense conversions (testing and the reference evaluator)} *)

val to_dense : n:int -> t -> float array
(** Array of actual values indexed by [id - 1]. *)

val of_dense : max:float -> float array -> t

val overlay : t -> ids:int array -> values:float array -> t
(** [overlay t ~ids ~values] is [t] with the value at [ids.(k)] replaced
    by [values.(k)]: equal to {!of_dense} of [to_dense t] overwritten at
    those ids, in O(|ids| + |t|) without the dense array.  [ids] must be
    strictly ascending and at least 1.
    @raise Invalid_argument as {!of_dense} on a value over the maximum,
    on unsorted [ids], or when [ids] and [values] differ in length. *)
