type key = {
  formula : int;
  level : int;
  extents : int list;  (* extent lengths: the proper-sequence partition *)
  domains : (string * Picture.Retrieval.domain) list;
}

let key ~formula ~level ~extents ~domains =
  let lengths =
    List.map
      (fun iv -> Simlist.Interval.hi iv - Simlist.Interval.lo iv + 1)
      (Simlist.Extent.spans extents)
  in
  { formula; level; extents = lengths; domains }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  words : int;
}

(* A circular doubly-linked recency list through a sentinel: [root.next]
   is the most recent entry, [root.prev] the next to evict.  Relinking
   writes only existing entries, so a hit allocates nothing in the
   long-lived list (an option cell per link would be promoted and left
   behind as major-heap garbage on every probe).

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
  mutable words : int;  (* [Sim_table.words value], counted at [add] *)
  mutable prev : entry;
  mutable next : entry;
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
  root : entry;  (* the sentinel: no key of its own, never in [table] *)
  mutable words : int;  (* sum of the live entries' words *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable survivals : int;
  mutable stale_drops : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let rec root =
    {
      ekey = { formula = -1; level = -1; extents = []; domains = [] };
      stamp = -1;
      value = Simlist.Sim_table.of_sim_list (Simlist.Sim_list.empty ~max:0.);
      words = 0;
      prev = root;
      next = root;
    }
  in
  {
    cap = capacity;
    mutex = Mutex.create ();
    table = Hashtbl.create (min capacity 64);
    root;
    words = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    survivals = 0;
    stale_drops = 0;
  }

let capacity t = t.cap

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

(* [e] leaves the cache: off the recency list, out of the table and the
   word count *)
let remove t e =
  unlink e;
  Hashtbl.remove t.table e.ekey;
  t.words <- t.words - e.words

let push_front t e =
  e.prev <- t.root;
  e.next <- t.root.next;
  t.root.next.prev <- e;
  t.root.next <- e

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
          unlink e;
          push_front t e;
          Hit e.value
      | Some e ->
          if valid ~stamp:e.stamp then begin
            e.stamp <- version;
            t.hits <- t.hits + 1;
            t.survivals <- t.survivals + 1;
            unlink e;
            push_front t e;
            Survived e.value
          end
          else begin
            remove t e;
            t.misses <- t.misses + 1;
            t.stale_drops <- t.stale_drops + 1;
            Stale
          end
      | None ->
          t.misses <- t.misses + 1;
          Absent)

let evict_lru t =
  let e = t.root.prev in
  if e != t.root then begin
    remove t e;
    t.evictions <- t.evictions + 1
  end

(* The words are counted before taking the mutex: O(rows), and the
   table is immutable. *)
let add t k ~version v =
  let words = Simlist.Sim_table.words v in
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
          t.words <- t.words - e.words + words;
          e.value <- v;
          e.words <- words;
          e.stamp <- version;
          unlink e;
          push_front t e
      | None ->
          if Hashtbl.length t.table >= t.cap then evict_lru t;
          let e =
            { ekey = k; stamp = version; value = v; words; prev = t.root;
              next = t.root }
          in
          Hashtbl.add t.table k e;
          t.words <- t.words + words;
          push_front t e)

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        capacity = t.cap;
        words = t.words;
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
      t.root.next <- t.root;
      t.root.prev <- t.root;
      t.words <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.survivals <- 0;
      t.stale_drops <- 0)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "hits %d  misses %d  evictions %d  entries %d/%d" s.hits
    s.misses s.evictions s.entries s.capacity
