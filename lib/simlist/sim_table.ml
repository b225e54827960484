type row = {
  objs : (string * int) list;
  attrs : (string * Range.t) list;
  list : Sim_list.t;
}

type t = {
  obj_cols : string list;
  attr_cols : string list;
  max : float;
  rows : row list;
  count : int;  (* = List.length rows, kept so row_count is O(1) *)
}

let sorted_strings l = List.sort_uniq String.compare l

let check_sorted_subset ~what bound cols =
  let rec sorted = function
    | a :: (b :: _ as tl) -> String.compare a b < 0 && sorted tl
    | [ _ ] | [] -> true
  in
  if not (sorted bound) then
    invalid_arg (Printf.sprintf "Sim_table: %s bindings must be sorted" what);
  List.iter
    (fun v ->
      if not (List.mem v cols) then
        invalid_arg
          (Printf.sprintf "Sim_table: %s binds undeclared variable %s" what v))
    bound

let create ~obj_cols ~attr_cols ~max rows =
  let obj_cols = sorted_strings obj_cols
  and attr_cols = sorted_strings attr_cols in
  List.iter
    (fun r ->
      check_sorted_subset ~what:"object" (List.map fst r.objs) obj_cols;
      check_sorted_subset ~what:"attribute" (List.map fst r.attrs) attr_cols;
      if Sim_list.max_sim r.list <> max then
        invalid_arg "Sim_table.create: row list max differs from table max")
    rows;
  { obj_cols; attr_cols; max; rows; count = List.length rows }

let of_sim_list list =
  {
    obj_cols = [];
    attr_cols = [];
    max = Sim_list.max_sim list;
    rows = [ { objs = []; attrs = []; list } ];
    count = 1;
  }

let obj_cols t = t.obj_cols
let attr_cols t = t.attr_cols
let max_sim t = t.max
let rows t = t.rows
let row_count t = t.count

(* Physical identity: a join hands one list, one binding pair or one
   binding-list tail to several rows, and each is resident once. *)
module Seen = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let first_sight seen v =
  let o = Obj.repr v in
  (not (Seen.mem seen o)) && (Seen.add seen o (); true)

(* a cons cell and a pair (3 words each) per binding not seen yet; the
   tail of a seen cell is seen too *)
let rec binding_words seen = function
  | [] -> 0
  | (pair :: tl) as cell ->
      if not (first_sight seen cell) then 0
      else
        3 + (if first_sight seen pair then 3 else 0) + binding_words seen tl

(* the record (6 words) and its boxed maximum (2), and a cons cell (3)
   per column, so a table with no rows still weighs something; per row
   its cons cell and record (7).  Every row list's maximum is the
   table's, and the lists an evaluation builds share one box of it: it
   is counted once, with the table. *)
let words t =
  let seen = Seen.create (4 * t.count) in
  List.fold_left
    (fun n r ->
      n + 7
      + binding_words seen r.objs
      + binding_words seen r.attrs
      + if first_sight seen r.list then Sim_list.words r.list - 2 else 0)
    (8 + (3 * (List.length t.obj_cols + List.length t.attr_cols)))
    t.rows

(* Merge two sorted association lists; [combine] decides what happens when
   both bind a key ([None] aborts the whole unification). *)
let unify_assoc combine xs ys =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], rest | rest, [] -> Some (List.rev_append acc rest)
    | ((kx, vx) as x) :: xtl, ((ky, vy) as y) :: ytl ->
        let c = String.compare kx ky in
        if c < 0 then go xtl ys (x :: acc)
        else if c > 0 then go xs ytl (y :: acc)
        else
          Option.bind (combine vx vy) (fun v ->
              go xtl ytl ((kx, v) :: acc))
  in
  go xs ys []

let unify_objs = unify_assoc (fun a b -> if a = b then Some a else None)
let unify_attrs = unify_assoc Range.intersect

let try_join_rows combine ra rb =
  match unify_objs ra.objs rb.objs with
  | None -> None
  | Some objs -> (
      match unify_attrs ra.attrs rb.attrs with
      | None -> None
      | exception Invalid_argument _ -> None
      | Some attrs -> Some { objs; attrs; list = combine ra.list rb.list })

let join ~combine a b =
  let result_max =
    Sim_list.max_sim
      (combine (Sim_list.empty ~max:a.max) (Sim_list.empty ~max:b.max))
  in
  let shared_objs =
    List.filter (fun c -> List.mem c b.obj_cols) a.obj_cols
  in
  let binds_all r = List.for_all (fun c -> List.mem_assoc c r.objs) shared_objs in
  let use_hash =
    shared_objs <> []
    && List.for_all binds_all a.rows
    && List.for_all binds_all b.rows
  in
  let a_rows = Array.of_list a.rows and b_rows = Array.of_list b.rows in
  let a_matched = Array.make (Array.length a_rows) false
  and b_matched = Array.make (Array.length b_rows) false in
  let out = ref [] in
  (* a row with an empty list is only droppable when it carries no
     attribute ranges: a range row marks which part of the attribute
     space it covers, and losing it would let a later until-join treat
     the complement region as matched (see the freeze tests) *)
  let keep row = row.attrs <> [] || not (Sim_list.is_empty row.list) in
  let consider ia ib =
    match try_join_rows combine a_rows.(ia) b_rows.(ib) with
    | None -> ()
    | Some row ->
        a_matched.(ia) <- true;
        b_matched.(ib) <- true;
        if keep row then out := row :: !out
  in
  if use_hash then begin
    let key r = List.map (fun c -> List.assoc c r.objs) shared_objs in
    let index = Hashtbl.create (Array.length b_rows) in
    Array.iteri (fun ib rb -> Hashtbl.add index (key rb) ib) b_rows;
    Array.iteri
      (fun ia ra ->
        List.iter (fun ib -> consider ia ib) (Hashtbl.find_all index (key ra)))
      a_rows
  end
  else
    Array.iteri
      (fun ia _ ->
        Array.iteri (fun ib _ -> consider ia ib) b_rows)
      a_rows;
  (* pad unmatched rows with the other side's empty list: a conjunct that
     matches nothing still satisfies the formula partially (§2.5) *)
  let empty_a = Sim_list.empty ~max:a.max
  and empty_b = Sim_list.empty ~max:b.max in
  Array.iteri
    (fun ia ra ->
      if not a_matched.(ia) then begin
        let row = { ra with list = combine ra.list empty_b } in
        if keep row then out := row :: !out
      end)
    a_rows;
  Array.iteri
    (fun ib rb ->
      if not b_matched.(ib) then begin
        let row = { rb with list = combine empty_a rb.list } in
        if keep row then out := row :: !out
      end)
    b_rows;
  (* canonicalise: several row pairs can intersect to the same
     (binding, ranges) key — e.g. an empty region row against several
     overlapping partners — and without merging them the row count grows
     multiplicatively along a join chain *)
  let dedup rows =
    let groups = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun r ->
        let key = (r.objs, r.attrs) in
        match Hashtbl.find_opt groups key with
        | Some lists -> lists := r.list :: !lists
        | None ->
            Hashtbl.add groups key (ref [ r.list ]);
            order := (key, r) :: !order)
      rows;
    List.rev_map
      (fun ((key, r) : _ * row) ->
        match !(Hashtbl.find groups key) with
        | [ single ] -> { r with list = single }
        | lists -> { r with list = Sim_list.merge_max lists })
      !order
  in
  create
    ~obj_cols:(sorted_strings (a.obj_cols @ b.obj_cols))
    ~attr_cols:(sorted_strings (a.attr_cols @ b.attr_cols))
    ~max:result_max
    (dedup (List.rev !out))

let project_exists t =
  match t.rows with
  | [] -> Sim_list.empty ~max:t.max
  | rows -> Sim_list.merge_max (List.map (fun r -> r.list) rows)

let project_obj_var t var =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let objs = List.remove_assoc var r.objs in
      let key = (objs, r.attrs) in
      match Hashtbl.find_opt groups key with
      | Some lists -> lists := r.list :: !lists
      | None ->
          Hashtbl.add groups key (ref [ r.list ]);
          order := key :: !order)
    t.rows;
  let rows =
    List.rev_map
      (fun ((objs, attrs) as key) ->
        { objs; attrs; list = Sim_list.merge_max !(Hashtbl.find groups key) })
      !order
  in
  create
    ~obj_cols:(List.filter (fun c -> c <> var) t.obj_cols)
    ~attr_cols:t.attr_cols ~max:t.max rows

let compare_value (a : Range.value) (b : Range.value) =
  match (a, b) with
  | Vint x, Vint y -> Int.compare x y
  | Vstr x, Vstr y -> String.compare x y
  | Vint _, Vstr _ -> -1
  | Vstr _, Vint _ -> 1

(* the first index of [values] (sorted) whose value is not below [key] *)
let lower_bound (values : Value_table.row array) key =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_value values.(mid).value key < 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length values)

(* the least value a range can hold: its values follow it in sorted order *)
let range_floor : Range.t -> Range.value = function
  | Ints { lo; _ } -> Vint (Option.value lo ~default:min_int)
  | Str None -> Vstr ""
  | Str (Some s) -> Vstr s

(* Union of sorted span lists that are pairwise disjoint, merged in pairs
   like [Sim_list.merge_max]. *)
let union_spans lists =
  let merge =
    List.merge (fun a b -> Int.compare (Interval.lo a) (Interval.lo b))
  in
  let rec pairs = function
    | a :: b :: tl -> merge a b :: pairs tl
    | short -> short
  in
  let rec go = function [] -> [] | [ x ] -> x | ls -> go (pairs ls) in
  let spans = go lists in
  let rec check = function
    | a :: (b :: _ as tl) ->
        if Interval.hi a >= Interval.lo b then
          invalid_arg
            "Sim_table.freeze_join: one binding's value spans overlap";
        check tl
    | [ _ ] | [] -> ()
  in
  check spans;
  spans

(* One evaluation's list from its member rows, each with the run
   [start, stop) of its binding's [values] (sorted by value) that it
   matched: every member's list restricted once, to the union of the
   spans of its values, then max-merged.  Members with empty lists add
   nothing. *)
let evaluation_list ~max (values : Value_table.row array) members =
  let clipped =
    List.filter_map
      (fun (list, start, stop) ->
        if Sim_list.is_empty list then None
        else
          Some
            (Sim_list.restrict list
               (union_spans
                  (List.init (stop - start) (fun i ->
                       values.(start + i).spans)))))
      members
  in
  match clipped with
  | [] -> Sim_list.empty ~max
  | lists -> Sim_list.merge_max lists

let freeze_join ?visited t ~var vt =
  let vt_cols = Value_table.obj_cols vt in
  (* the value table indexed by object binding, each binding's rows
     sorted by value; the bindings keep their table order *)
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (vr : Value_table.row) ->
      match Hashtbl.find_opt groups vr.objs with
      | Some rows -> rows := vr :: !rows
      | None ->
          Hashtbl.add groups vr.objs (ref [ vr ]);
          order := vr.objs :: !order)
    (Value_table.rows vt);
  let index = Hashtbl.create (Hashtbl.length groups) in
  let bindings =
    List.rev_map
      (fun objs ->
        let values =
          Array.of_list
            (List.stable_sort
               (fun (a : Value_table.row) b -> compare_value a.value b.value)
               (List.rev !(Hashtbl.find groups objs)))
        in
        Hashtbl.add index objs values;
        (objs, values))
      !order
  in
  (* a row that does not constrain [var] takes any value of its kind *)
  let unconstrained =
    match (Value_table.rows vt : Value_table.row list) with
    | { value = Range.Vstr _; _ } :: _ -> Range.full_str
    | { value = Range.Vint _; _ } :: _ | [] -> Range.full_int
  in
  let count k = match visited with Some v -> v := !v + k | None -> () in
  (* the values of one binding inside [range] are a run [start, stop)
     of its sorted rows: read that run and the row that ends it *)
  let run_in range (values : Value_table.row array) =
    let n = Array.length values in
    let start = lower_bound values (range_floor range) in
    let rec stop i =
      if i < n && Range.mem values.(i).value range then stop (i + 1) else i
    in
    let stop = stop start in
    count (stop - start + if stop < n then 1 else 0);
    (start, stop)
  in
  (* the member rows of each evaluation, keyed by (binding, remaining
     ranges) in first-appearance order, each with the run of values it
     matched *)
  let evaluations = Hashtbl.create 16 and keys = ref [] in
  let emit row objs values =
    let range =
      Option.value (List.assoc_opt var row.attrs) ~default:unconstrained
    in
    let start, stop = run_in range values in
    if start < stop then
      let key = (objs, List.remove_assoc var row.attrs) in
      let member = (row.list, start, stop) in
      match Hashtbl.find_opt evaluations key with
      | Some (_, members) -> members := member :: !members
      | None ->
          Hashtbl.add evaluations key (values, ref [ member ]);
          keys := key :: !keys
  in
  let n_cols = List.length vt_cols in
  List.iter
    (fun row ->
      let key = List.filter (fun (c, _) -> List.mem c vt_cols) row.objs in
      if List.length key = n_cols then
        (* the row binds the value table's columns: one binding *)
        match Hashtbl.find_opt index key with
        | Some values -> emit row row.objs values
        | None -> ()
      else
        (* a wildcard row pairs with every binding it unifies with *)
        List.iter
          (fun (objs, values) ->
            match unify_objs row.objs objs with
            | Some objs -> emit row objs values
            | None -> ())
          bindings)
    t.rows;
  let rows =
    List.fold_left
      (fun acc ((objs, attrs) as key) ->
        let values, members = Hashtbl.find evaluations key in
        let list = evaluation_list ~max:t.max values (List.rev !members) in
        (* an empty row still marks the region its ranges cover *)
        if attrs <> [] || not (Sim_list.is_empty list) then
          { objs; attrs; list } :: acc
        else acc)
      [] !keys
  in
  create
    ~obj_cols:(sorted_strings (t.obj_cols @ vt_cols))
    ~attr_cols:(List.filter (fun c -> c <> var) t.attr_cols)
    ~max:t.max rows

let filter_rows f t =
  let rows = List.filter f t.rows in
  { t with rows; count = List.length rows }

let pp ppf t =
  let pp_row ppf r =
    Format.fprintf ppf "@[<h>{%a%a} %a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (k, v) ->
           Format.fprintf ppf "%s=%d" k v))
      r.objs
      (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (k, v) ->
           Format.fprintf ppf " %s in %a" k Range.pp v))
      r.attrs Sim_list.pp r.list
  in
  Format.fprintf ppf "@[<v>table objs=(%s) attrs=(%s) max=%g@,%a@]"
    (String.concat "," t.obj_cols)
    (String.concat "," t.attr_cols)
    t.max
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_row)
    t.rows
