open Unate

(* Structural memoization for the DP mapper (see memo.mli and
   docs/mapping-cache.md for the design and the transparency argument).

   A node's table is a function of its operator, of what each fanin
   offers it, and of the run's options.  A fanin offers one leaf (a
   primary-input literal, or a boundary gate at some level) or, when it
   is a single-fanout node, its own table.  So the key of a node is its
   operator plus one code per fanin: the leaf kind, or the id of the
   fanin's own entry.  The key is exact, ordered and O(1) per node, and
   since tuples name no signal (Soi_rules.structure), a hit hands the
   engine the cached table itself. *)

(* ---------- keys ---------- *)

(* What a table depends on besides the cone: the cost model's weights
   (not its name: equal weights mean equal tables), the engine options,
   and the caller's salt. *)
type world = {
  regular : int;
  clocked : int;
  discharge : int;
  depth_factor : int;
  w_max : int;
  h_max : int;
  soi : bool;
  both_orders : bool;
  grounded : bool;
  pareto : int;
  salt : int;
}

type key = { world : world; op_and : bool; c0 : int; c1 : int; hash : int }

(* Fanin codes: entry ids are >= 0, leaves are negative. *)
let pi = -1
let boundary ~level = -2 - level

let mix h x =
  let h = (h lxor x) * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 29)

let world_hash w =
  List.fold_left mix 0x2545F4914F6CDD1
    [
      w.regular; w.clocked; w.discharge; w.depth_factor; w.w_max; w.h_max;
      Bool.to_int w.soi; Bool.to_int w.both_orders; Bool.to_int w.grounded;
      w.pareto; w.salt;
    ]

let make_key world ~world_hash ~op_and c0 c1 =
  {
    world;
    op_and;
    c0;
    c1;
    hash = mix (mix (mix world_hash (Bool.to_int op_and)) c0) c1 land max_int;
  }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.c0 = b.c0 && a.c1 = b.c1 && a.op_and = b.op_and
    && (a.world == b.world || a.world = b.world)

  let hash k = k.hash
end)

(* ---------- tables ---------- *)

(* Ids are unique across every table of the process, so the layers of a
   remap overlay, which parents key through, never disagree on one. *)
let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

type entry = {
  id : int;
  key : key;
  table : Soi_rules.sol list array;
  tuples : int;  (* tuples in [table], so a hit need not count them *)
}

let make_entry key table =
  {
    id = fresh_id ();
    key;
    table;
    tuples = Array.fold_left (fun acc c -> acc + List.length c) 0 table;
  }

type shard = { lock : Mutex.t; tbl : entry Tbl.t }

type t = {
  shards : shard array;  (* length is a power of two *)
  mask : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  entries : int Atomic.t;
}

type stats = { hits : int; misses : int; collisions : int; entries : int }

let m_hit = Obs.Metrics.counter "cache.hit"
let m_miss = Obs.Metrics.counter "cache.miss"

let create ?(shards = 16) () =
  if shards < 1 then invalid_arg "Memo.create: shards must be positive";
  let n = ref 1 in
  while !n < shards do
    n := !n * 2
  done;
  {
    shards =
      Array.init !n (fun _ -> { lock = Mutex.create (); tbl = Tbl.create 64 });
    mask = !n - 1;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    entries = Atomic.make 0;
  }

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    collisions = 0;
    entries = Atomic.get t.entries;
  }

let entry_count (t : t) = Atomic.get t.entries
let shard_of t key = t.shards.((key.hash lsr 7) land t.mask)

let lookup t key =
  let shard = shard_of t key in
  Mutex.lock shard.lock;
  let e = Tbl.find_opt shard.tbl key in
  Mutex.unlock shard.lock;
  e

(* Publish [entry] unless its key raced in first; either way return the
   entry that holds the key.  Entries are immutable once published, so
   readers outside the lock are safe. *)
let insert t entry =
  let shard = shard_of t entry.key in
  Mutex.lock shard.lock;
  let held =
    match Tbl.find_opt shard.tbl entry.key with
    | Some e -> e
    | None ->
        Tbl.add shard.tbl entry.key entry;
        entry
  in
  Mutex.unlock shard.lock;
  if held == entry then Atomic.incr t.entries;
  held

let entries t =
  let all = ref [] in
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      Tbl.iter (fun _ e -> all := e :: !all) shard.tbl;
      Mutex.unlock shard.lock)
    t.shards;
  List.sort (fun a b -> compare a.id b.id) !all

(* ---------- per-mapping-run sessions ---------- *)

type run = {
  table : t;
  under : t option;  (* overlay sessions: read-only shared layer *)
  prev : t option;  (* overlay sessions: previous overlay, copied up on a hit *)
  world : world;
  world_hash : int;
  mutable r_hits : int;
  mutable r_misses : int;
}

let start ?under ?prev t ~(model : Cost.model) ~w_max ~h_max ~soi ~both_orders
    ~grounded ~pareto ~salt =
  let world =
    {
      regular = model.Cost.regular;
      clocked = model.Cost.clocked;
      discharge = model.Cost.discharge;
      depth_factor = model.Cost.depth_factor;
      w_max;
      h_max;
      soi;
      both_orders;
      grounded;
      pareto;
      salt;
    }
  in
  {
    table = t;
    under;
    prev;
    world;
    world_hash = world_hash world;
    r_hits = 0;
    r_misses = 0;
  }

let key r ~op_and c0 c1 = make_key r.world ~world_hash:r.world_hash ~op_and c0 c1

let find r key =
  (* Overlay order: the shared layer first (it serves every clean cone),
     then this session's own entries, then the previous overlay, whose
     hit is copied up so the next overlay can drop it.  A plain session
     has only its own table. *)
  let found =
    match Option.bind r.under (fun u -> lookup u key) with
    | Some _ as e -> e
    | None -> (
        match lookup r.table key with
        | Some _ as e -> e
        | None ->
            Option.map (insert r.table)
              (Option.bind r.prev (fun p -> lookup p key)))
  in
  (match found with
  | Some _ -> r.r_hits <- r.r_hits + 1
  | None -> r.r_misses <- r.r_misses + 1);
  found

let store r key table = insert r.table (make_entry key table)
let id (e : entry) = e.id
let table (e : entry) = e.table
let tuples (e : entry) = e.tuples

let finish r =
  ignore (Atomic.fetch_and_add r.table.hits r.r_hits);
  ignore (Atomic.fetch_and_add r.table.misses r.r_misses);
  Obs.Metrics.add m_hit r.r_hits;
  Obs.Metrics.add m_miss r.r_misses;
  (r.r_hits, r.r_misses)

(* ---------- exact cone identity ---------- *)

let classes u ~boundary_level =
  let n = Unetwork.node_count u in
  let fanouts = Unetwork.fanout_counts u in
  let ids = Array.make n None in
  let seen = Hashtbl.create (max 16 n) in
  let code = function
    | Unetwork.F_lit _ -> Some pi
    | Unetwork.F_const _ -> None
    | Unetwork.F_node m ->
        if fanouts.(m) > 1 then Some (boundary ~level:(boundary_level m))
        else ids.(m)
  in
  for v = 0 to n - 1 do
    let nd = Unetwork.node u v in
    match (code nd.Unetwork.fanin0, code nd.Unetwork.fanin1) with
    | Some c0, Some c1 ->
        let k = (nd.Unetwork.kind = Unetwork.U_and, c0, c1) in
        ids.(v) <-
          Some
            (match Hashtbl.find_opt seen k with
            | Some c -> c
            | None ->
                let c = Hashtbl.length seen in
                Hashtbl.add seen k c;
                c)
    | _ -> ()
  done;
  ids

(* ---------- network fingerprints: a reference predictor ---------- *)

(* Deep per-node signatures over the *whole* transitive fanin, ordered
   and identity-included — a different scheme from the memo keys on
   purpose.  Memo keys stop at mapping boundaries and ignore which
   signal drives a leaf, so structurally equal cones share entries; a
   fingerprint answers the opposite question — "is this node's entire
   input cone bit-for-bit the structure it was before the edit?" — so it
   must distinguish everything the DP can see: fanin order, literal
   identity and phase, and whether each referenced node is a mapping
   boundary (fanout > 1) in this network.  Equal deep signatures are
   therefore a sound clean-marker: the DP solve of a clean node's cone
   is a pure function of what the signature hashes, so every
   memoizable lookup below it hits a table populated by the previous
   mapping.  No request computes them: the tests check the memo's
   misses against this independent predictor. *)

(* Two independently mixed native-int halves per node: 126 bits, no
   boxing.  [fmix] is the splitmix64 finalizer at OCaml's int width. *)
type fingerprint = { fp_hi : int array; fp_lo : int array }

let fmix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

(* Ordered: distinct multipliers on the two fanins, so mirrored fanin
   orders never collide (the DP's series composition is asymmetric). *)
let fingerprint u =
  let n = Unetwork.node_count u in
  let fanouts = Unetwork.fanout_counts u in
  let hi = Array.make n 0 and lo = Array.make n 0 in
  let lit_code input positive = (input * 2) + Bool.to_int positive in
  let fin_hi = function
    | Unetwork.F_const b -> fmix (if b then 0x165667b19e3779f9 else 0x1f83d9abfb41bd6b)
    | Unetwork.F_lit { input; positive } ->
        fmix (0x27d4eb2f165667c5 + lit_code input positive)
    | Unetwork.F_node m ->
        if fanouts.(m) > 1 then fmix (0x1216d5d98979fb1b + hi.(m)) else hi.(m)
  in
  let fin_lo = function
    | Unetwork.F_const b -> fmix (if b then 0x2c4ceb9fe1a85ec5 else 0x3a0761d6478bd642)
    | Unetwork.F_lit { input; positive } ->
        fmix (0x05ebca77c2b2ae63 + (lit_code input positive * 0x3f51afd7ed558ccd))
    | Unetwork.F_node m ->
        if fanouts.(m) > 1 then fmix (0x052821e638d01377 + lo.(m)) else lo.(m)
  in
  for id = 0 to n - 1 do
    let nd = Unetwork.node u id in
    let op_and = nd.Unetwork.kind = Unetwork.U_and in
    hi.(id) <-
      fmix
        ((if op_and then 0x3e5466cf34e90c6c else 0x00ac29b7c97c50dd)
        + (fin_hi nd.Unetwork.fanin0 * 0x1e3779b97f4a7c15)
        + (fin_hi nd.Unetwork.fanin1 * 0x02b2ae3d27d4eb4f));
    lo.(id) <-
      fmix
        ((if op_and then 0x1646ea4a0c2d3c5b else 0x2d2a1d1d7d2d1a3b)
        + (fin_lo nd.Unetwork.fanin0 * 0x16e8feb86659fd93)
        + (fin_lo nd.Unetwork.fanin1 * 0x20761d6478bd642f))
  done;
  { fp_hi = hi; fp_lo = lo }

module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let dirty_cones ~prev ~next =
  let seen = Ints.create (max 16 (2 * Array.length prev.fp_hi)) in
  Array.iteri (fun i h -> Ints.add seen h prev.fp_lo.(i)) prev.fp_hi;
  Array.mapi
    (fun i h -> not (List.mem next.fp_lo.(i) (Ints.find_all seen h)))
    next.fp_hi

(* ---------- invariants ---------- *)

let self_check t =
  let ids = Hashtbl.create 64 in
  let check e =
    let w = e.key.world in
    if Array.length e.table <> w.w_max * w.h_max then
      Some
        (Printf.sprintf "entry %d has %d slots where its key demands %d" e.id
           (Array.length e.table) (w.w_max * w.h_max))
    else if Hashtbl.mem ids e.id then
      Some (Printf.sprintf "entry id %d held by two keys" e.id)
    else if e.key.c0 >= e.id || e.key.c1 >= e.id then
      Some (Printf.sprintf "entry %d keys on an entry no older than itself" e.id)
    else begin
      Hashtbl.add ids e.id ();
      None
    end
  in
  let rec go n = function
    | [] -> Ok n
    | e :: rest -> (
        match check e with Some msg -> Error msg | None -> go (n + 1) rest)
  in
  go 0 (entries t)

(* ---------- persistence ---------- *)

(* Layout: 8-byte magic, 4-byte version, 4-byte payload length, 16-byte
   MD5 digest of the payload, payload (Marshal of the entry dump).  The
   digest is verified *before* unmarshalling, so a garbage or truncated
   file can never reach Marshal (which is not safe on arbitrary
   bytes). *)
let magic = "SOIDMEMO"

(* Version history: 1 = the original layout; 2 = tuples carry the
   footedness flag and keys carry the caller salt; 3 = exact keys over
   entry ids and identity-free tuples.  Old files degrade to a cold
   start, never misread. *)
let format_version = 3

(* One saved entry: its world, operator, fanin codes and table.  Entry
   ids in a file are dense, in age order, so a key only ever names an
   earlier record; loading re-interns them into the process's ids. *)
type saved = {
  s_world : world;
  s_op_and : bool;
  s_c0 : int;
  s_c1 : int;
  s_table : Soi_rules.sol list array;
}

let degrade stage msg =
  Resilience.Outcome.Degraded
    ( 0,
      [
        {
          Resilience.Outcome.stage;
          reason = Resilience.Budget.Cache_invalid msg;
          fallback = "cold-start";
        };
      ] )

(* Entries in age order with their ids renumbered densely, so a serial
   run rewrites the file reproducibly.  An entry whose key names an
   entry outside [t] (an overlay's child in the shared layer) could not
   be resolved on load and is left out, with everything keyed on it. *)
let dump t =
  let dense = Hashtbl.create 64 in
  let code c = if c < 0 then Some c else Hashtbl.find_opt dense c in
  List.rev
    (List.fold_left
       (fun acc e ->
         match (code e.key.c0, code e.key.c1) with
         | Some c0, Some c1 ->
             Hashtbl.add dense e.id (Hashtbl.length dense);
             {
               s_world = e.key.world;
               s_op_and = e.key.op_and;
               s_c0 = c0;
               s_c1 = c1;
               s_table = e.table;
             }
             :: acc
         | _ -> acc)
       [] (entries t))

(* Concurrent-writer safety.  Two processes saving the same --cache FILE
   (the daemon's periodic flush racing a CLI run, say) must never leave a
   torn file: each writer streams into its *own* temp file in the target
   directory and publishes it with an atomic [rename], so a reader
   always sees either the old payload or a new complete one.  The temp
   name embeds the pid and a process-local sequence number and is opened
   with O_EXCL, so two writers can never share a temp file either — a
   leftover name from a crashed twin (same recycled pid) just bumps the
   sequence and retries. *)
let temp_seq = Atomic.make 0

let open_excl_temp file =
  let rec go attempts =
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ())
        (Atomic.fetch_and_add temp_seq 1)
    in
    match
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    with
    | fd -> (tmp, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when attempts < 64 ->
        go (attempts + 1)
  in
  go 0

let save t file =
  let data : saved list = dump t in
  let payload = Marshal.to_string data [] in
  let digest = Digest.string payload in
  match
    let tmp, oc = open_excl_temp file in
    (try
       output_string oc magic;
       output_binary_int oc format_version;
       output_binary_int oc (String.length payload);
       output_string oc digest;
       output_string oc payload;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp file
  with
  | () -> Resilience.Outcome.Ok (String.length payload)
  | exception Sys_error msg -> degrade "memo.save" msg
  | exception e -> degrade "memo.save" (Printexc.to_string e)

let read_cache_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m =
        try really_input_string ic (String.length magic)
        with End_of_file -> failwith "truncated header"
      in
      if m <> magic then failwith "bad magic (not a soimap cache)";
      let v = try input_binary_int ic with End_of_file -> failwith "truncated header" in
      if v <> format_version then
        failwith
          (Printf.sprintf "format version %d (this build reads %d)" v
             format_version);
      let len =
        try input_binary_int ic with End_of_file -> failwith "truncated header"
      in
      if len < 0 then failwith "corrupt payload length";
      let digest =
        try really_input_string ic 16 with End_of_file -> failwith "truncated digest"
      in
      let payload =
        try really_input_string ic len
        with End_of_file -> failwith "truncated payload"
      in
      if Digest.string payload <> digest then failwith "payload digest mismatch";
      (Marshal.from_string payload 0 : saved list))

(* A key only names earlier records (see [dump]); a file where one does
   not was not written by [save]. *)
let well_ordered data =
  let rec go i = function
    | [] -> true
    | s :: rest -> s.s_c0 < i && s.s_c1 < i && go (i + 1) rest
  in
  go 0 data

(* Re-intern: record [i] of the file becomes whichever entry of [t]
   holds its key once its fanin codes are translated, a fresh one or an
   equal-keyed entry already there. *)
let load t file =
  if not (Sys.file_exists file) then Resilience.Outcome.Ok 0
  else
    match read_cache_file file with
    | data when not (well_ordered data) ->
        degrade "memo.load" "an entry keys on a later record"
    | data ->
        let ids = Array.make (List.length data) (-1) in
        let code c = if c < 0 then c else ids.(c) in
        let added = ref 0 in
        List.iteri
          (fun i s ->
            let key =
              make_key s.s_world ~world_hash:(world_hash s.s_world)
                ~op_and:s.s_op_and (code s.s_c0) (code s.s_c1)
            in
            let fresh = make_entry key s.s_table in
            let held = insert t fresh in
            if held == fresh then incr added;
            ids.(i) <- held.id)
          data;
        Resilience.Outcome.Ok !added
    | exception Failure msg -> degrade "memo.load" msg
    | exception Sys_error msg -> degrade "memo.load" msg
    | exception e -> degrade "memo.load" (Printexc.to_string e)
