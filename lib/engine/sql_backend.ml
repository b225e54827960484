open Htl.Ast
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table
module Interval = Simlist.Interval
module Extent = Simlist.Extent
module Catalog = Relational.Catalog
module Table = Relational.Table
module V = Relational.Value

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type t = {
  db : Catalog.t;
  mutable fresh : int;
  mutable script : string list;  (* reversed *)
  mutable temps : string list;
}

let db t = t.db
let last_script t = List.rev t.script

let create (ctx : Context.t) =
  let db = Catalog.create () in
  let rows =
    List.concat_map
      (fun span ->
        let lo = Interval.lo span and hi = Interval.hi span in
        List.init
          (Interval.length span)
          (fun k -> [| V.Int (lo + k); V.Int lo; V.Int hi |]))
      (Extent.spans (Context.extents ctx))
  in
  Catalog.put db "seq" (Table.create ~cols:[ "id"; "elo"; "ehi" ] rows);
  { db; fresh = 0; script = []; temps = [] }

let fresh t prefix =
  t.fresh <- t.fresh + 1;
  let name = Printf.sprintf "%s_%d" prefix t.fresh in
  t.temps <- name :: t.temps;
  name

let exec t sql =
  t.script <- sql :: t.script;
  ignore (Catalog.exec_sql t.db sql)

let float_lit v = Printf.sprintf "%.17g" v

(* load an atomic unit's similarity list as an interval table *)
let load_atom t name (list : Sim_list.t) =
  let rows =
    List.init (Sim_list.length list) (fun i ->
        [|
          V.Int (Sim_list.lo list i);
          V.Int (Sim_list.hi list i);
          V.Float (Sim_list.value list i);
        |])
  in
  Catalog.put t.db name (Table.create ~cols:[ "beg"; "fin"; "act" ] rows)

(* until/eventually share the corridor machinery: [corridors] has columns
   (lo, hi, ehi); result value at i in [lo,hi] = max h.act over
   [i, min(hi+1, ehi)]; plus h at the id itself when [with_self]. *)
let corridor_merge t ~corridors ~h_name ~with_self =
  let reach = fresh t "reach" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT i.id AS id, h.act AS act FROM %s h JOIN \
        %s c ON h.id BETWEEN c.lo AND c.hi + 1 AND h.id <= c.ehi JOIN seq \
        i ON i.id BETWEEN c.lo AND c.hi AND i.id <= h.id;"
       reach h_name corridors);
  let cor_max = fresh t "cmax" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT id, MAX(act) AS act FROM %s GROUP BY id;"
       cor_max reach);
  if not with_self then cor_max
  else begin
    let both = fresh t "both" in
    exec t
      (Printf.sprintf
         "CREATE TABLE %s AS SELECT id, act FROM %s UNION ALL SELECT id, \
          act FROM %s;"
         both cor_max h_name);
    let out = fresh t "t" in
    exec t
      (Printf.sprintf
         "CREATE TABLE %s AS SELECT id, MAX(act) AS act FROM %s GROUP BY id;"
         out both);
    out
  end

(* --- list-level SQL operations ------------------------------------------ *)

(* expand a similarity list into a per-id table (id, act) *)
let sql_expand t list =
  let atom = fresh t "atom" in
  load_atom t atom list;
  let out = fresh t "t" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT s.id AS id, a.act AS act FROM seq s \
        JOIN %s a ON s.id BETWEEN a.beg AND a.fin;"
       out atom);
  out

let sql_and t u v =
  let all = fresh t "uall" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT id, act FROM %s UNION ALL SELECT id, \
        act FROM %s;"
       all u v);
  let out = fresh t "t" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT id, SUM(act) AS act FROM %s GROUP BY id;"
       out all);
  out

let sql_next t u =
  let out = fresh t "t" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT u.id - 1 AS id, u.act AS act FROM %s u \
        JOIN seq s ON u.id = s.id WHERE u.id - 1 >= s.elo;"
       out u);
  out

(* [thr] is the absolute (not fractional) corridor threshold for g *)
let sql_until t ~thr gu hv =
  let g_ok = fresh t "gok" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT u.id AS id, s.elo AS elo, s.ehi AS ehi \
        FROM %s u JOIN seq s ON u.id = s.id WHERE u.act >= %s;"
       g_ok gu (float_lit thr));
  let g_run = fresh t "grun" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT id, elo, ehi, ROWNUM() AS rn FROM %s \
        ORDER BY id;"
       g_run g_ok);
  let corridors = fresh t "cor" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT MIN(id) AS lo, MAX(id) AS hi, MIN(ehi) \
        AS ehi FROM %s GROUP BY elo, id - rn;"
       corridors g_run);
  corridor_merge t ~corridors ~h_name:hv ~with_self:true

let sql_eventually t u =
  let corridors = fresh t "cor" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT DISTINCT elo AS lo, ehi AS hi, ehi AS \
        ehi2 FROM seq;"
       corridors);
  (* rename ehi2 -> ehi via a projection table *)
  let corridors2 = fresh t "cor" in
  exec t
    (Printf.sprintf "CREATE TABLE %s AS SELECT lo, hi, ehi2 AS ehi FROM %s;"
       corridors2 corridors);
  corridor_merge t ~corridors:corridors2 ~h_name:u ~with_self:false

(* read a per-id table back into a similarity list, coalescing in SQL *)
let read_back t name ~max =
  let numbered = fresh t "numbered" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT id, act, ROWNUM() AS rn FROM %s ORDER BY \
        act, id;"
       numbered name);
  let result = fresh t "result" in
  exec t
    (Printf.sprintf
       "CREATE TABLE %s AS SELECT MIN(id) AS beg, MAX(id) AS fin, MIN(act) \
        AS act FROM %s GROUP BY act, id - rn;"
       result numbered);
  let table = Catalog.find t.db result in
  let entries =
    List.filter_map
      (fun row ->
        match row with
        | [| V.Int beg; V.Int fin; act |] ->
            let act =
              match act with
              | V.Float a -> a
              | V.Int a -> float_of_int a
              | V.Null | V.Str _ -> 0.
            in
            if act > 0. then Some (Interval.make beg fin, act) else None
        | _ -> None)
      (Table.rows table)
  in
  Sim_list.of_entries ~max entries

let sql_label f =
  if is_non_temporal f then "sql.atom"
  else
    match f with
    | And _ -> "sql.and"
    | Until _ -> "sql.until"
    | Next _ -> "sql.next"
    | Eventually _ -> "sql.eventually"
    | Exists _ -> "sql.exists"
    | Freeze _ -> "sql.freeze"
    | At_level _ -> "sql.at_level"
    | Or _ | Not _ | Atom _ -> "sql.other"

let span_attrs (ctx : Context.t) f () =
  [
    ("formula", string_of_int (Htl.Hcons.intern_id f));
    ("level", string_of_int ctx.level);
  ]

(* translate a type (1) formula; returns the name of a per-id table
   (id, act) holding the non-zero actual similarities.  Each node records
   a span whose ["statements"] attribute counts the SQL statements it
   (and its children) emitted. *)
let rec translate t (ctx : Context.t) f =
  Context.with_span ctx (sql_label f) ~attrs:(span_attrs ctx f) (fun () ->
      let before = List.length t.script in
      let out = translate_raw t ctx f in
      Context.add_attr ctx "statements" (fun () ->
          string_of_int (List.length t.script - before));
      out)

and translate_raw t (ctx : Context.t) f =
  if is_non_temporal f then begin
    if free_obj_vars f <> [] || free_attr_vars f <> [] then
      unsupported "the SQL backend handles closed atomic units only";
    sql_expand t (Sim_table.project_exists (Atomic.resolve ctx f))
  end
  else
    match f with
    | And (g, h) -> sql_and t (translate t ctx g) (translate t ctx h)
    | Next g -> sql_next t (translate t ctx g)
    | Until (g, h) ->
        let thr = ctx.threshold *. Reference.max_similarity ctx g in
        sql_until t ~thr (translate t ctx g) (translate t ctx h)
    | Eventually g -> sql_eventually t (translate t ctx g)
    | Or _ | Not _ | Exists _ | Freeze _ | At_level _ ->
        unsupported "the SQL backend handles type (1) formulas only: %s"
          (Htl.Pretty.to_string f)
    | Atom _ -> assert false

let cleanup t =
  List.iter (fun name -> Catalog.drop t.db name) t.temps;
  t.temps <- []

(* [sql_and] sums: the paper's weighted-sum conjunction is the only
   mode the translation implements, for type (1) and conjunctive
   formulas alike *)
let supports (ctx : Context.t) = ctx.conj_mode = Sim_list.Weighted_sum

let require_supported ctx =
  if not (supports ctx) then
    unsupported
      "the SQL translation implements the paper's weighted-sum conjunction \
       only"

let run t ctx f =
  require_supported ctx;
  t.script <- [];
  let final = translate t ctx f in
  let list =
    Context.with_span ctx "sql.read_back" (fun () ->
        read_back t final ~max:(Reference.max_similarity ctx f))
  in
  Context.metric_incr ctx ~by:(List.length t.script) "sql.statements";
  cleanup t;
  list

(* --- conjunctive formulas (§3.2/§3.3 via SQL) ----------------------------

   The paper's SQL system computes similarity tables for any conjunctive
   formula.  We mirror its structure: the evaluation bookkeeping (rows of
   variable bindings, joins on shared variables, the freeze value-table
   join) follows §3.2/§3.3 exactly, while every similarity-LIST
   combination — the actual data processing — is a sequence of SQL
   statements over per-id tables. *)

let sql_combine_lists t kind l1 l2 =
  let u = sql_expand t l1 and v = sql_expand t l2 in
  let max, out =
    match kind with
    | `And -> (Sim_list.max_sim l1 +. Sim_list.max_sim l2, sql_and t u v)
    | `Until threshold ->
        let thr = threshold *. Sim_list.max_sim l1 in
        (Sim_list.max_sim l2, sql_until t ~thr u v)
  in
  read_back t out ~max

let sql_map_list t kind l =
  let u = sql_expand t l in
  let out = match kind with `Next -> sql_next t u | `Eventually -> sql_eventually t u in
  read_back t out ~max:(Sim_list.max_sim l)

let rec eval_conjunctive t (ctx : Context.t) f =
  Context.with_span ctx (sql_label f) ~attrs:(span_attrs ctx f) (fun () ->
      eval_conjunctive_raw t ctx f)

and eval_conjunctive_raw t (ctx : Context.t) f =
  if is_non_temporal f then Atomic.resolve ctx f
  else
    match f with
    | And (g, h) ->
        Sim_table.join
          ~combine:(sql_combine_lists t `And)
          (eval_conjunctive t ctx g) (eval_conjunctive t ctx h)
    | Until (g, h) ->
        Sim_table.join
          ~combine:(sql_combine_lists t (`Until ctx.threshold))
          (eval_conjunctive t ctx g) (eval_conjunctive t ctx h)
    | Next g ->
        Direct.map_lists (sql_map_list t `Next) (eval_conjunctive t ctx g)
    | Eventually g ->
        Direct.map_lists (sql_map_list t `Eventually) (eval_conjunctive t ctx g)
    | Exists (x, g) ->
        Sim_table.project_obj_var
          (eval_conjunctive t (Context.shadow_obj_var ctx x) g)
          x
    | Freeze { var; attr; obj; body } -> (
        let table =
          eval_conjunctive t (Context.with_domain ctx ~var { attr; obj }) body
        in
        match Direct.value_table ctx ~attr ~obj with
        | vt -> Direct.freeze ctx table ~var vt
        | exception Direct.Unsupported msg -> unsupported "%s" msg)
    | At_level (sel, g) -> (
        (* the body evaluates over the descendant sequences of the target
           level, which have their own id space: give it its own sequence
           table (a fresh database), then lift the rows back *)
        match
          let target = Direct.resolve_level ctx sel in
          if target <= ctx.level then
            raise
              (Direct.Unsupported
                 (Printf.sprintf "level operator must descend (at %d from %d)"
                    target ctx.level));
          let spans, extents = Direct.at_level_extents ctx ~target in
          (target, spans, extents)
        with
        | exception Direct.Unsupported msg -> unsupported "%s" msg
        | target, spans, extents ->
            let ctx' = Context.with_level ctx ~level:target ~extents in
            let t' = create ctx' in
            let inner = eval_conjunctive t' ctx' g in
            t.script <- List.rev_append (List.rev t'.script) t.script;
            cleanup t';
            Direct.map_lists (Direct.lift_to_parents spans) inner)
    | Or _ | Not _ ->
        unsupported "the SQL translation has no semantics for %s"
          (Htl.Pretty.to_string f)
    | Atom _ -> assert false

let run_conjunctive t ctx f =
  require_supported ctx;
  t.script <- [];
  let result =
    Sim_table.project_exists
      (eval_conjunctive t ctx (snd (Direct.split_prefix f)))
  in
  Context.metric_incr ctx ~by:(List.length t.script) "sql.statements";
  cleanup t;
  result

let node_label = sql_label
