open Htl.Ast

type timing = Untimed | Cached | Timed of float

type node = {
  label : string;
  attrs : (string * string) list;
  timing : timing;
  children : node list;
}

type report = {
  backend : string;
  backend_reason : string option;
  cls : Htl.Classify.cls;
  formula : string;
  analyzed : bool;
  tree : node;
  sql_script : node list;
  total_s : float option;
  resources : Obs.Resource.delta option;
}

let node ?(attrs = []) ?(timing = Untimed) label children =
  { label; attrs; timing; children }

(* --- span matching -------------------------------------------------------

   Every evaluator span carries a ["formula"] attribute: the hash-consed
   id of the subformula it computed (see Direct.span_attrs).  The tree
   walk below consumes spans per formula id in start order, so a
   subformula that appears twice in the tree gets its computed span on
   the first occurrence and shows as [Cached] on the second — mirroring
   what the cache actually did. *)

type lookup = Htl.Ast.t -> (Obs.Trace.span * (string * string) list) option

let span_lookup spans : lookup =
  let tbl : (string, Obs.Trace.span list ref) Hashtbl.t = Hashtbl.create 32 in
  (* what a freeze's domain pruned is recorded on the picture.eval span
     an atom's span encloses; the atom's node shows it *)
  let lifted = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      (match Obs.Trace.attr s "formula" with
      | Some id -> (
          match Hashtbl.find_opt tbl id with
          | Some r -> r := !r @ [ s ]
          | None -> Hashtbl.add tbl id (ref [ s ]))
      | None -> ());
      if s.name = "picture.eval" then
        Option.iter
          (fun d -> Hashtbl.replace lifted s.parent [ ("regions_dropped", d) ])
          (Obs.Trace.attr s "regions_dropped"))
    spans;
  fun f ->
    let id = string_of_int (Htl.Hcons.intern_id f) in
    match Hashtbl.find_opt tbl id with
    | Some ({ contents = s :: rest } as r) ->
        r := rest;
        Some (s, Option.value ~default:[] (Hashtbl.find_opt lifted s.id))
    | _ -> None

(* Timing + recorded attributes for a node.  [take = None] is the static
   (no-analyze) walk: everything is [Untimed].  With spans, a node with
   no span of its own was served from the subformula cache. *)
let observed take f =
  match take with
  | None -> (Untimed, [])
  | Some take -> (
      match take f with
      | None -> (Cached, [])
      | Some (span, lifted) ->
          let timing =
            match Obs.Trace.duration_s span with
            | Some d -> Timed d
            | None -> Untimed
          in
          let attrs =
            List.filter (fun (k, _) -> k <> "formula") (List.rev span.attrs)
          in
          (timing, attrs @ lifted))

(* How the atomic evaluator will source a non-temporal leaf: a
   precomputed named table, an index-pruned candidate scan, or a full
   segment scan.  Static analysis only ({!Picture.Pruning.plan} needs no
   index), so it is available in un-analyzed EXPLAIN too. *)
let atom_access (ctx : Context.t) f =
  (* the plan's decision when one is attached (it may demote a
     high-selectivity atom to a scan); the static rule otherwise *)
  match Option.bind ctx.plan (fun p -> Planner.access p f) with
  | Some a -> [ ("access", Planner.access_to_string a) ]
  | None -> (
      match Atomic.named_table ctx f with
      | Some _ -> [ ("access", "table") ]
      | None -> (
          match ctx.store with
          | None -> []
          | Some _ ->
              if not ctx.picture_config.prune then [ ("access", "scan") ]
              else (
                match Picture.Pruning.describe (Picture.Pruning.plan f) with
                | Some d -> [ ("access", "index: " ^ d) ]
                | None -> [ ("access", "scan") ])))

(* estimated rows/cost per node when a plan is attached — EXPLAIN
   ANALYZE places them next to the recorded actuals ([rows], timings) *)
let est_attrs (ctx : Context.t) f =
  match ctx.plan with None -> [] | Some p -> Planner.node_attrs p f

let atom_attrs ctx f = ("formula", Htl.Pretty.to_string f) :: atom_access ctx f

(* --- direct-evaluation trees --------------------------------------------- *)

let rec direct_tree (ctx : Context.t) ?take f =
  let timing, span_attrs = observed take f in
  let structural, children =
    if is_non_temporal f then (atom_attrs ctx f, [])
    else
      match f with
      | And _ ->
          (* one flattened node, children in the order Direct joins them *)
          let subs = Array.of_list (Planner.conjuncts f) in
          ( [],
            List.map
              (fun i -> direct_tree ctx ?take subs.(i))
              (Direct.join_order ctx f ~n:(Array.length subs)) )
      | Until (g, h) ->
          ([], [ direct_tree ctx ?take g; direct_tree ctx ?take h ])
      | Next g | Eventually g -> ([], [ direct_tree ctx ?take g ])
      | Exists (x, g) -> ([ ("var", x) ], [ direct_tree ctx ?take g ])
      | Freeze { var; attr; obj; body } ->
          let attrs =
            [ ("var", var); ("attr", attr) ]
            @ match obj with Some x -> [ ("obj", x) ] | None -> []
          in
          (attrs, [ direct_tree ctx ?take body ])
      | At_level (sel, g) ->
          let attrs =
            match Direct.resolve_level ctx sel with
            | target -> [ ("target_level", string_of_int target) ]
            | exception Direct.Unsupported _ -> []
          in
          (attrs, [ direct_tree ctx ?take g ])
      | Or (g, h) -> ([], [ direct_tree ctx ?take g; direct_tree ctx ?take h ])
      | Not g -> ([], [ direct_tree ctx ?take g ])
      | Atom _ -> ([], [])
  in
  node (Direct.node_label f) ~timing
    ~attrs:(structural @ est_attrs ctx f @ span_attrs)
    children

let rec sql_tree (ctx : Context.t) ?take f =
  let timing, span_attrs = observed take f in
  let structural, children =
    if is_non_temporal f then (atom_attrs ctx f, [])
    else
      match f with
      | And (g, h) | Until (g, h) ->
          ([], [ sql_tree ctx ?take g; sql_tree ctx ?take h ])
      | Next g | Eventually g -> ([], [ sql_tree ctx ?take g ])
      | Exists (x, g) -> ([ ("var", x) ], [ sql_tree ctx ?take g ])
      | Freeze { var; attr; obj; body } ->
          let attrs =
            [ ("var", var); ("attr", attr) ]
            @ match obj with Some x -> [ ("obj", x) ] | None -> []
          in
          (attrs, [ sql_tree ctx ?take body ])
      | At_level (_, g) -> ([], [ sql_tree ctx ?take g ])
      | Or (g, h) -> ([], [ sql_tree ctx ?take g; sql_tree ctx ?take h ])
      | Not g -> ([], [ sql_tree ctx ?take g ])
      | Atom _ -> ([], [])
  in
  node (Sql_backend.node_label f) ~timing
    ~attrs:(structural @ est_attrs ctx f @ span_attrs)
    children

(* --- SQL script plan trees ----------------------------------------------- *)

let rec plan_node p =
  node (Relational.Plan.label p)
    (List.map plan_node (Relational.Plan.children p))

let stmt_node (stmt : Relational.Sql.stmt) =
  match stmt with
  | Relational.Sql.Create_table (name, cols) ->
      node
        (Printf.sprintf "CREATE TABLE %s (%s)" name (String.concat ", " cols))
        []
  | Relational.Sql.Create_table_as (name, q) ->
      node
        (Printf.sprintf "CREATE TABLE %s AS" name)
        [ plan_node (Relational.Sql.plan_query q) ]
  | Relational.Sql.Insert (name, rows) ->
      node (Printf.sprintf "INSERT INTO %s (%d rows)" name (List.length rows)) []
  | Relational.Sql.Drop_table { name; if_exists } ->
      node
        (Printf.sprintf "DROP TABLE %s%s"
           (if if_exists then "IF EXISTS " else "")
           name)
        []
  | Relational.Sql.Select_stmt q ->
      node "SELECT" [ plan_node (Relational.Sql.plan_query q) ]

let script_nodes statements =
  List.concat_map
    (fun src ->
      match Relational.Sql.parse src with
      | stmts -> List.map stmt_node stmts
      | exception Relational.Sql.Error msg ->
          [ node (Printf.sprintf "<unparsed: %s>" msg) [] ])
    statements

(* --- rendering ------------------------------------------------------------ *)

let pp_timing ppf = function
  | Untimed -> ()
  | Cached -> Format.fprintf ppf " [cached]"
  | Timed d -> Format.fprintf ppf " (%.3f ms)" (d *. 1e3)

let pp_node ppf root =
  let rec go depth n =
    Format.fprintf ppf "%s%s%a" (String.make (2 * depth) ' ') n.label pp_timing
      n.timing;
    (match n.attrs with
    | [] -> ()
    | attrs ->
        Format.fprintf ppf " {%s}"
          (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)));
    Format.fprintf ppf "@,";
    List.iter (go (depth + 1)) n.children
  in
  Format.fprintf ppf "@[<v>";
  go 0 root;
  Format.fprintf ppf "@]"

let pp ppf r =
  Format.fprintf ppf "@[<v>query:   %s@,class:   %s@,backend: %s@," r.formula
    (Htl.Classify.cls_to_string r.cls)
    r.backend;
  (match r.backend_reason with
  | Some reason -> Format.fprintf ppf "planner: %s@," reason
  | None -> ());
  Format.fprintf ppf "@,%a" pp_node r.tree;
  (match r.sql_script with
  | [] -> ()
  | stmts ->
      Format.fprintf ppf "@,script:@,";
      List.iteri
        (fun i n ->
          Format.fprintf ppf "@[<v>-- statement %d@,%a@]@," (i + 1) pp_node n)
        stmts);
  (match r.total_s with
  | Some t -> Format.fprintf ppf "@,total: %.3f ms" (t *. 1e3)
  | None -> ());
  (match r.resources with
  | Some d -> Format.fprintf ppf "@,gc:    %a" Obs.Resource.pp d
  | None -> ());
  Format.fprintf ppf "@]"

let to_string r = Format.asprintf "%a" pp r
