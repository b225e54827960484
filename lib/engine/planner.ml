open Htl.Ast
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table

(* Cost-based physical planning (DESIGN.md §2.21).
   The planner walks the formula once before execution and records, per
   hash-consed subformula, an estimated support cardinality, selectivity
   and abstract cost.  Estimates come from three sources, cheapest
   first:

   - posting-list lengths through [Picture.Pruning.estimate] — a sound
     upper bound on the index-pruned candidate count of every
     non-temporal unit, exact for single-family atoms;
   - precomputed named tables — [Sim_list.covered] is the exact support;
   - [Obs.Stats] observations — per-atom selectivity EWMAs and
     per-(fingerprint, backend) latency EWMAs from earlier runs.

   Blending is bounded: the static estimate is recomputed from the live
   index on every plan, and an observation can only *lower* the
   selectivity below that bound ([min]), never raise it.  A cold or
   polluted EWMA therefore cannot stick: the next evaluation of the
   atom re-records the true ratio and the static bound caps the damage
   meanwhile.

   The plan decides three things, none of which can change results
   (every choice picks between evaluation strategies that are
   property-tested equal):
   - conjunct order for [And] chains (sparsest first), which
     [Direct] folds in;
   - index-vs-scan per non-temporal unit (pruning is sound either way);
   - direct-vs-SQL backend under [`Auto] (both backends are
     differential-tested equal). *)

type access =
  | Table  (** a precomputed named table *)
  | Indexed of string  (** index-pruned candidates; the pruning plan *)
  | Scan of
      [ `No_index_plan  (** the pruning plan covers the whole level *)
      | `Pruning_disabled  (** the caller turned pruning off *)
      | `High_selectivity of float
        (** estimated selectivity above the crossover threshold: a
            full scan beats materializing most of the level *) ]

type node_est = {
  est_rows : int;
  est_sel : float;
  est_cost : float;
  access : access option;  (* [Some] on non-temporal leaf units *)
  order : int list option;  (* planned conjunct order on [And] chains *)
}

type t = {
  nodes : (int, node_est) Hashtbl.t;
  scan_threshold : float;
  direct_cost : float;
  sql_cost : float;
}

(* Abstract cost units: scoring one segment in a direct atomic
   evaluation costs 1.  The other constants are ratios measured against
   that on the bench corpus — entry-merge work in list conjunctions is
   far cheaper than scoring, a row pushed through the relational
   engine's parse/insert/join pipeline far more expensive. *)
let c_score = 1.0
let c_entry = 0.25
let c_lookup = 8.0
let c_sql_row = 24.0
let c_sql_stmt = 64.0

(* The index-vs-scan crossover, calibrated against BENCH_index.json's
   selectivity sweep: pruned evaluation wins clearly up to ~0.5
   selectivity, is a wash around ~0.75 and can lose above it (the
   candidate array materialization costs more than it saves). *)
let default_scan_threshold = 0.75

let named_table ~tables = function
  | Atom (Rel (name, [])) -> List.assoc_opt name tables
  | _ -> None

(* A non-temporal sub-conjunction is one unit, scored whole by
   [Atomic.resolve] (one weighted-sum picture scan, as the reference
   semantics scores it): the chain splits only at temporal [And]s. *)
let rec conjuncts = function
  | And (a, b) as g when not (is_non_temporal g) -> conjuncts a @ conjuncts b
  | g -> [ g ]

let build ?stats ?index ?(scan_threshold = default_scan_threshold) ~tables
    ~taxonomy ~prune ~segments ~level f =
  let nodes = Hashtbl.create 32 in
  let nf = float_of_int (max 1 segments) in
  let leaf_cost = ref 0. in
  let atom_rows = ref 0 in
  let op_count = ref 0 in
  let observed_sel g =
    match stats with
    | None -> None
    | Some st ->
        Obs.Stats.selectivity st ~level ~atom:(Htl.Pretty.to_string g)
  in
  let add g e =
    Hashtbl.replace nodes (Htl.Hcons.intern_id g) e;
    e
  in
  (* estimate for a whole non-temporal unit — the granularity at which
     [Direct.eval_raw] hands off to [Atomic.resolve];
     [locals] are the object variables bound by enclosing existential
     binders, so open atoms of a stripped quantifier chain estimate
     from their postings instead of degenerating to empty *)
  let rec leaf locals g =
    match named_table ~tables g with
    | Some table ->
        let rows = Sim_table.rows table in
        let covered =
          min segments
            (List.fold_left
               (fun acc (r : Sim_table.row) -> acc + Sim_list.covered r.list)
               0 rows)
        in
        let entries =
          List.fold_left
            (fun acc (r : Sim_table.row) -> acc + Sim_list.length r.list)
            0 rows
        in
        let cost = c_entry *. float_of_int entries in
        leaf_cost := !leaf_cost +. cost;
        atom_rows := !atom_rows + entries;
        add g
          {
            est_rows = covered;
            est_sel = float_of_int covered /. nf;
            est_cost = cost;
            access = Some Table;
            order = None;
          }
    | None -> (
        match index with
        | Some idx ->
            let p = Picture.Pruning.plan_under ~locals g in
            let static = Picture.Pruning.estimate ~taxonomy idx p in
            let static_sel = float_of_int static /. nf in
            (* bounded blend: observation can only lower the estimate
               below the static upper bound, never raise it *)
            let sel =
              match observed_sel g with
              | Some obs -> Float.min static_sel obs
              | None -> static_sel
            in
            let est_rows =
              min static (int_of_float (Float.round (sel *. nf)))
            in
            let access, cost =
              if not prune then
                (Scan `Pruning_disabled, nf *. c_score)
              else if Picture.Pruning.is_all p then
                (Scan `No_index_plan, nf *. c_score)
              else if sel > scan_threshold then
                (Scan (`High_selectivity sel), nf *. c_score)
              else
                ( Indexed
                    (Option.value ~default:"all"
                       (Picture.Pruning.describe p)),
                  (float_of_int est_rows *. c_score) +. c_lookup )
            in
            leaf_cost := !leaf_cost +. cost;
            atom_rows := !atom_rows + est_rows;
            add g
              {
                est_rows;
                est_sel = sel;
                est_cost = cost;
                access = Some access;
                order = None;
              }
        | None -> (
            (* store-less: [Atomic] decomposes conjunction/existential
               units down to named tables *)
            match g with
            | And (a, b) ->
                let ea = leaf locals a and eb = leaf locals b in
                let est = min segments (ea.est_rows + eb.est_rows) in
                let cost =
                  ea.est_cost +. eb.est_cost
                  +. (c_entry *. float_of_int (ea.est_rows + eb.est_rows))
                in
                add g
                  {
                    est_rows = est;
                    est_sel = float_of_int est /. nf;
                    est_cost = cost;
                    access = None;
                    order = None;
                  }
            | Exists (x, b) ->
                let eb = leaf (x :: locals) b in
                add g { eb with access = None; order = None }
            | _ ->
                leaf_cost := !leaf_cost +. (nf *. c_score);
                atom_rows := !atom_rows + segments;
                add g
                  {
                    est_rows = segments;
                    est_sel = 1.0;
                    est_cost = nf *. c_score;
                    access = None;
                    order = None;
                  }))
  in
  let rec walk locals g =
    incr op_count;
    if is_non_temporal g then leaf locals g
    else
      match g with
      | And (a, b) ->
          let ea = walk locals a and eb = walk locals b in
          (* the whole chain rooted here, in written order: the planned
             join order is a permutation of its positions, sparsest
             estimate first (ties keep written order) *)
          let subs = conjuncts g in
          let ests =
            List.mapi
              (fun i s ->
                match Hashtbl.find_opt nodes (Htl.Hcons.intern_id s) with
                | Some e -> (i, e.est_rows)
                | None -> (i, segments))
              subs
          in
          let order =
            List.map fst
              (List.sort
                 (fun (i, a) (j, b) -> compare (a, i) (b, j))
                 ests)
          in
          let est = min segments (ea.est_rows + eb.est_rows) in
          let cost =
            ea.est_cost +. eb.est_cost
            +. (c_entry *. float_of_int (ea.est_rows + eb.est_rows))
          in
          add g
            {
              est_rows = est;
              est_sel = float_of_int est /. nf;
              est_cost = cost;
              access = None;
              order = Some order;
            }
      | Until (a, b) ->
          let ea = walk locals a and eb = walk locals b in
          (* until-merge can extend support backwards through an
             extent, so bound by the level, cost by both inputs *)
          add g
            {
              est_rows = segments;
              est_sel = 1.0;
              est_cost =
                ea.est_cost +. eb.est_cost
                +. (c_entry *. float_of_int (ea.est_rows + eb.est_rows))
                +. (c_entry *. nf);
              access = None;
              order = None;
            }
      | Next a ->
          let ea = walk locals a in
          add g
            {
              ea with
              est_cost = ea.est_cost +. (c_entry *. float_of_int ea.est_rows);
              access = None;
              order = None;
            }
      | Eventually a ->
          let ea = walk locals a in
          (* spreads each match to its extent's start: bound the level *)
          add g
            {
              est_rows = segments;
              est_sel = 1.0;
              est_cost =
                ea.est_cost +. (c_entry *. float_of_int ea.est_rows);
              access = None;
              order = None;
            }
      | Exists (x, a) ->
          let ea = walk (x :: locals) a in
          add g { ea with access = None; order = None }
      | Freeze { body; _ } ->
          let ea = walk locals body in
          add g
            {
              ea with
              est_cost = ea.est_cost +. (nf *. c_entry) +. c_lookup;
              access = None;
              order = None;
            }
      | At_level (_, a) ->
          let ea = walk locals a in
          add g
            {
              est_rows = segments;
              est_sel = 1.0;
              est_cost = ea.est_cost +. (nf *. c_entry);
              access = None;
              order = None;
            }
      | Or (a, b) ->
          let ea = walk locals a and eb = walk locals b in
          let est = min segments (ea.est_rows + eb.est_rows) in
          add g
            {
              est_rows = est;
              est_sel = float_of_int est /. nf;
              est_cost = ea.est_cost +. eb.est_cost;
              access = None;
              order = None;
            }
      | Not a ->
          let ea = walk locals a in
          add g
            {
              est_rows = segments;
              est_sel = 1.0;
              est_cost = ea.est_cost;
              access = None;
              order = None;
            }
      | Atom _ -> leaf locals g
  in
  let root = walk [] f in
  (* the SQL backend materializes the same atomic tables, then pushes
     every row through parse/insert and evaluates temporal operators as
     per-segment relational queries — each op touches the level again *)
  let sql_cost =
    !leaf_cost
    +. (c_sql_row *. float_of_int !atom_rows)
    +. (c_sql_stmt *. float_of_int !op_count)
    +. (c_sql_row *. nf *. float_of_int !op_count)
  in
  {
    nodes;
    scan_threshold;
    direct_cost = root.est_cost;
    sql_cost;
  }

let find t g = Hashtbl.find_opt t.nodes (Htl.Hcons.intern_id g)
let direct_cost t = t.direct_cost
let sql_cost t = t.sql_cost
let scan_threshold t = t.scan_threshold

let join_order t g =
  match find t g with Some { order; _ } -> order | None -> None

let access t g =
  match find t g with Some { access; _ } -> access | None -> None

let scan_override t g =
  match access t g with
  | Some (Scan (`High_selectivity _)) -> true
  | Some (Table | Indexed _ | Scan (`No_index_plan | `Pruning_disabled))
  | None ->
      false

let access_to_string = function
  | Table -> "table"
  | Indexed d -> "index: " ^ d
  | Scan (`High_selectivity sel) ->
      Printf.sprintf "scan (planned, est sel %.2f)" sel
  | Scan (`No_index_plan | `Pruning_disabled) -> "scan"

let node_attrs t g =
  match find t g with
  | None -> []
  | Some e ->
      [
        ("est_rows", string_of_int e.est_rows);
        ("est_cost", Printf.sprintf "%.3g" e.est_cost);
      ]

(* --- backend choice ------------------------------------------------------ *)

type backend_choice = {
  picked : [ `Direct | `Sql ];
  est_direct : float;
  est_sql : float;
  observed_direct_s : float option;
  observed_sql_s : float option;
  reason : string;
}

let choose_backend ?stats ~fingerprint t =
  let obs backend =
    match stats with
    | None -> None
    | Some st -> Obs.Stats.backend_latency_s st ~fingerprint ~backend
  in
  let od = obs "direct" and os = obs "sql" in
  let picked, reason =
    match (od, os) with
    | Some d, Some s ->
        (* both backends have run this fingerprint: trust the clock *)
        ( (if s < d then `Sql else `Direct),
          Printf.sprintf "observed ewma direct %.3gs vs sql %.3gs" d s )
    | _ ->
        ( (if t.sql_cost < t.direct_cost then `Sql else `Direct),
          Printf.sprintf "estimated cost direct %.3g vs sql %.3g"
            t.direct_cost t.sql_cost )
  in
  {
    picked;
    est_direct = t.direct_cost;
    est_sql = t.sql_cost;
    observed_direct_s = od;
    observed_sql_s = os;
    reason;
  }
