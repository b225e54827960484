type key = {
  formula : int;
  level : int;
  extents : int list;  (* extent lengths: the proper-sequence partition *)
}

let key ~formula ~level ~extents =
  let lengths =
    List.map
      (fun iv -> Simlist.Interval.hi iv - Simlist.Interval.lo iv + 1)
      (Simlist.Extent.spans extents)
  in
  { formula; level; extents = lengths }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

(* doubly-linked recency list; head = most recent, tail = next to evict.
   The store version is NOT part of the key: each entry carries the
   version it was computed at as a [stamp], and a lookup at a newer
   version asks the caller's validity predicate whether the changes in
   between could have affected the entry (extent-scoped invalidation).
   A surviving entry is restamped so the replay happens once per entry
   per version step, not once per probe. *)
type entry = {
  ekey : key;
  mutable stamp : int;
  mutable value : Simlist.Sim_table.t;
  mutable prev : entry option;
  mutable next : entry option;
}

(* One mutex serializes every operation, counters included (the
   alternative — per-domain shards merged on completion — would lose the
   global LRU order and make [stats] incoherent mid-run).  Contention is
   negligible: a hit or miss is a few pointer swaps amortized against an
   entire subformula evaluation.  See DESIGN.md §2.13. *)
type t = {
  cap : int;
  mutex : Mutex.t;
  table : (key, entry) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable survivals : int;
  mutable stale_drops : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    cap = capacity;
    mutex = Mutex.create ();
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    survivals = 0;
    stale_drops = 0;
  }

let capacity t = t.cap

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

type outcome =
  | Hit of Simlist.Sim_table.t
  | Survived of Simlist.Sim_table.t
  | Stale
  | Absent

let find t k ~version ~valid =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e when e.stamp = version ->
          t.hits <- t.hits + 1;
          unlink t e;
          push_front t e;
          Hit e.value
      | Some e ->
          if valid ~stamp:e.stamp then begin
            e.stamp <- version;
            t.hits <- t.hits + 1;
            t.survivals <- t.survivals + 1;
            unlink t e;
            push_front t e;
            Survived e.value
          end
          else begin
            unlink t e;
            Hashtbl.remove t.table e.ekey;
            t.misses <- t.misses + 1;
            t.stale_drops <- t.stale_drops + 1;
            Stale
          end
      | None ->
          t.misses <- t.misses + 1;
          Absent)

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some e ->
      unlink t e;
      Hashtbl.remove t.table e.ekey;
      t.evictions <- t.evictions + 1

let add t k ~version v =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
          e.value <- v;
          e.stamp <- version;
          unlink t e;
          push_front t e
      | None ->
          if Hashtbl.length t.table >= t.cap then evict_lru t;
          let e = { ekey = k; stamp = version; value = v; prev = None; next = None } in
          Hashtbl.add t.table k e;
          push_front t e)

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        capacity = t.cap;
      })

let survivals t = Mutex.protect t.mutex (fun () -> t.survivals)
let stale_drops t = Mutex.protect t.mutex (fun () -> t.stale_drops)

let reset_stats t =
  Mutex.protect t.mutex (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.survivals <- 0;
      t.stale_drops <- 0)

let clear t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.survivals <- 0;
      t.stale_drops <- 0)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "hits %d  misses %d  evictions %d  entries %d/%d" s.hits
    s.misses s.evictions s.entries s.capacity
