open Unate

(* Structural memoization for the DP mapper (see memo.mli and
   docs/mapping-cache.md for the design and the transparency argument).

   The cache stores, per canonical subtree, the complete slot array of
   Pareto frontiers with identity-erased leaves.  A node's subtree spans
   its single-fanout fanin cone: multi-fanout fanins are mapping
   boundaries and appear as gate leaves carrying only their level (the
   one scalar a boundary contributes to its consumer's tuples).  A hit
   substitutes the instance's actual leaf signals back into the
   canonical structures; the scalars are copied verbatim.

   Canonical ids are assigned to the *distinct* signals of a subtree in
   first-occurrence DFS order (node before fanin0 before fanin1), so the
   duplicate-leaf pattern is part of the canonical shape: [a*a] and
   [a*b] have equal identity-erased signatures but different shapes, and
   never share an entry.  Internal single-fanout nodes get ids too,
   because the engine's cumulative-cost rule lets their formed gates
   appear as leaves inside their consumer's structures. *)

(* ---------- 128-bit structural signatures ---------- *)

type signature = { hi : int64; lo : int64 }

(* splitmix64 finalizer: a cheap, well-mixed avalanche. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Leaf hashes are identity-erased: every primary-input literal shares
   one constant, and a boundary gate hashes only its level. *)
let sig_pi =
  { hi = mix64 0x517cc1b727220a95L; lo = mix64 0x2545f4914f6cdd1dL }

let sig_gate level =
  let l = Int64.of_int level in
  {
    hi = mix64 (Int64.add 0x9e3779b97f4a7c15L l);
    lo = mix64 (Int64.add 0xd6e8feb86659fd93L (Int64.mul l 0x2127599bf4325c37L));
  }

(* Symmetric in (a, b): sums and products only, so commutative
   mirror-images collide on purpose and are separated by the ordered
   shape comparison below. *)
let sig_node op_and a b =
  let ks = if op_and then 0x8cb92ba72f3d8dd7L else 0x61c8864680b583ebL in
  {
    hi = mix64 (Int64.add ks (Int64.add a.hi b.hi));
    lo =
      mix64
        (Int64.add (mix64 ks)
           (Int64.logxor (Int64.mul a.lo b.lo) (Int64.add a.lo b.lo)));
  }

(* ---------- canonical shapes and tables ---------- *)

(* The ordered collision-check value: operator kinds, fanin order,
   boundary levels, and the first-occurrence canonical-id pattern. *)
type shape =
  | Sh_node of { op_and : bool; cid : int; s0 : shape; s1 : shape }
  | Sh_pi of int
  | Sh_gate of { cid : int; level : int }

type ctree = C_leaf of int | C_ser of ctree * ctree | C_par of ctree * ctree

(* Soi_rules.sol with the structure canonicalized and the cost value
   flattened; plain data, safe to marshal. *)
type csol = {
  c_w : int;
  c_h : int;
  c_weighted : int;
  c_depth : int;
  c_raw : int;
  c_p_dis : int;
  c_par_b : bool;
  c_has_pi : bool;
  c_disch : int;
  c_structure : ctree;
}

type key = {
  k_hi : int64;
  k_lo : int64;
  (* cost-model fingerprint: the four weight scalars (the name is
     deliberately excluded — equal weights mean equal tables) *)
  k_regular : int;
  k_clocked : int;
  k_discharge : int;
  k_depth_factor : int;
  (* options fingerprint *)
  k_w_max : int;
  k_h_max : int;
  k_soi : bool;
  k_both : bool;
  k_grounded : bool;
  k_pareto : int;
  (* caller-supplied salt (0 = plain mapping); the rewriting front end
     folds its pattern-set fingerprint and variant budget in here so a
     warm cache from a non-rewrite run is never served under rewriting
     (and vice versa) *)
  k_salt : int;
}

type entry = { e_shape : shape; e_table : csol list array }

type shard = { lock : Mutex.t; tbl : (key, entry list) Hashtbl.t }

type t = {
  shards : shard array;  (* length is a power of two *)
  mask : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  collisions : int Atomic.t;
  entries : int Atomic.t;
}

type stats = { hits : int; misses : int; collisions : int; entries : int }

let m_hit = Obs.Metrics.counter "cache.hit"
let m_miss = Obs.Metrics.counter "cache.miss"
let m_collision = Obs.Metrics.counter "cache.collision"
let m_bytes = Obs.Metrics.counter "cache.bytes"

let create ?(shards = 16) () =
  if shards < 1 then invalid_arg "Memo.create: shards must be positive";
  let n = ref 1 in
  while !n < shards do
    n := !n * 2
  done;
  {
    shards =
      Array.init !n (fun _ -> { lock = Mutex.create (); tbl = Hashtbl.create 64 });
    mask = !n - 1;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    collisions = Atomic.make 0;
    entries = Atomic.make 0;
  }

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    collisions = Atomic.get t.collisions;
    entries = Atomic.get t.entries;
  }

let entry_count (t : t) = Atomic.get t.entries

(* The signature spreads well, so it is also the shard selector. *)
let shard_of t key = t.shards.(Int64.to_int key.k_lo land t.mask)

let bucket_of t key =
  let shard = shard_of t key in
  Mutex.lock shard.lock;
  let bucket = Option.value (Hashtbl.find_opt shard.tbl key) ~default:[] in
  Mutex.unlock shard.lock;
  bucket

(* Insert unless an equal-shape entry raced in first; entries are
   immutable once published, so readers outside the lock are safe. *)
let insert t key entry =
  let shard = shard_of t key in
  Mutex.lock shard.lock;
  let bucket = Option.value (Hashtbl.find_opt shard.tbl key) ~default:[] in
  let added =
    if List.exists (fun e -> e.e_shape = entry.e_shape) bucket then false
    else begin
      Hashtbl.replace shard.tbl key (entry :: bucket);
      true
    end
  in
  Mutex.unlock shard.lock;
  if added then Atomic.incr t.entries;
  added

(* ---------- per-mapping-run sessions ---------- *)

(* Subtrees above this many nodes + leaves are not memoized: the shape
   walk is linear in the subtree, and without a cap a single-fanout
   chain would make the per-node bookkeeping quadratic. *)
let max_shape = 512

type node_info = Unmem | Mem of { s : signature; weight : int }

(* Store-side context carried from a missed [find] to its [store]. *)
type pending = {
  p_id : int;
  p_key : key;
  p_shape : shape;
  p_sig2cid : (Domino.Pdn.signal, int) Hashtbl.t;
}

type run = {
  table : t;
  under : t option;  (* overlay sessions: read-only shared layer *)
  prev : t option;  (* overlay sessions: previous overlay, copied up on a hit *)
  u : Unetwork.t;
  fanouts : int array;
  boundary_level : int -> int;
  base_key : key;
  info : node_info array;
  mutable pending : pending option;
  mutable r_hits : int;
  mutable r_misses : int;
  mutable r_collisions : int;
}

let start ?under ?prev t ~u ~fanouts ~(model : Cost.model) ~w_max ~h_max ~soi
    ~both_orders ~grounded ~pareto ~salt ~boundary_level =
  {
    table = t;
    under;
    prev;
    u;
    fanouts;
    boundary_level;
    base_key =
      {
        k_hi = 0L;
        k_lo = 0L;
        k_regular = model.Cost.regular;
        k_clocked = model.Cost.clocked;
        k_discharge = model.Cost.discharge;
        k_depth_factor = model.Cost.depth_factor;
        k_w_max = w_max;
        k_h_max = h_max;
        k_soi = soi;
        k_both = both_orders;
        k_grounded = grounded;
        k_pareto = pareto;
        k_salt = salt;
      };
    info = Array.make (Unetwork.node_count u) Unmem;
    pending = None;
    r_hits = 0;
    r_misses = 0;
    r_collisions = 0;
  }

exception Unmemoizable

(* Canonical shape of [id]'s subtree plus the two substitution maps:
   signal -> cid for canonicalizing on store, cid -> signal for
   reconstructing on a hit.  Ids are assigned to distinct signals in
   first-occurrence DFS order, a node's own id before its fanins'. *)
let build_shape r id =
  let sig2cid : (Domino.Pdn.signal, int) Hashtbl.t = Hashtbl.create 32 in
  let subst = ref [] in
  let next = ref 0 in
  let cid_of s =
    match Hashtbl.find_opt sig2cid s with
    | Some c -> c
    | None ->
        let c = !next in
        incr next;
        Hashtbl.add sig2cid s c;
        subst := s :: !subst;
        c
  in
  let rec walk fin =
    match fin with
    | Unetwork.F_const _ -> raise Unmemoizable
    | Unetwork.F_lit { input; positive } ->
        Sh_pi (cid_of (Domino.Pdn.S_pi { input; positive }))
    | Unetwork.F_node m ->
        if r.fanouts.(m) > 1 then
          Sh_gate
            { cid = cid_of (Domino.Pdn.S_gate m); level = r.boundary_level m }
        else begin
          let nd = Unetwork.node r.u m in
          let cid = cid_of (Domino.Pdn.S_gate m) in
          let s0 = walk nd.Unetwork.fanin0 in
          let s1 = walk nd.Unetwork.fanin1 in
          Sh_node
            { op_and = nd.Unetwork.kind = Unetwork.U_and; cid; s0; s1 }
        end
  in
  let nd = Unetwork.node r.u id in
  let cid = cid_of (Domino.Pdn.S_gate id) in
  let s0 = walk nd.Unetwork.fanin0 in
  let s1 = walk nd.Unetwork.fanin1 in
  let shape =
    Sh_node { op_and = nd.Unetwork.kind = Unetwork.U_and; cid; s0; s1 }
  in
  (shape, sig2cid, Array.of_list (List.rev !subst))

let rec tree_of subst = function
  | C_leaf cid -> Domino.Pdn.Leaf subst.(cid)
  | C_ser (a, b) -> Domino.Pdn.Series (tree_of subst a, tree_of subst b)
  | C_par (a, b) -> Domino.Pdn.Parallel (tree_of subst a, tree_of subst b)

let reconstruct entry subst =
  Array.map
    (List.map (fun c ->
         {
           Soi_rules.w = c.c_w;
           h = c.c_h;
           value =
             { Cost.weighted = c.c_weighted; depth = c.c_depth; raw = c.c_raw };
           p_dis = c.c_p_dis;
           par_b = c.c_par_b;
           has_pi = c.c_has_pi;
           disch = c.c_disch;
           structure = tree_of subst c.c_structure;
         }))
    entry.e_table

let rec ctree_of sig2cid = function
  | Domino.Pdn.Leaf s -> C_leaf (Hashtbl.find sig2cid s)
  | Domino.Pdn.Series (a, b) ->
      C_ser (ctree_of sig2cid a, ctree_of sig2cid b)
  | Domino.Pdn.Parallel (a, b) ->
      C_par (ctree_of sig2cid a, ctree_of sig2cid b)

(* Resolve node [id]'s signature and subtree weight from its fanins'
   (already resolved — the engine sweeps in topological order). *)
let resolve r id =
  let fin_info fin =
    match fin with
    | Unetwork.F_lit _ -> Some (sig_pi, 1)
    | Unetwork.F_const _ -> None
    | Unetwork.F_node m ->
        if r.fanouts.(m) > 1 then Some (sig_gate (r.boundary_level m), 1)
        else (
          match r.info.(m) with
          | Unmem -> None
          | Mem { s; weight } -> Some (s, weight))
  in
  let nd = Unetwork.node r.u id in
  match (fin_info nd.Unetwork.fanin0, fin_info nd.Unetwork.fanin1) with
  | Some (s0, w0), Some (s1, w1) when 1 + w0 + w1 <= max_shape ->
      let s = sig_node (nd.Unetwork.kind = Unetwork.U_and) s0 s1 in
      let i = Mem { s; weight = 1 + w0 + w1 } in
      r.info.(id) <- i;
      i
  | _ ->
      r.info.(id) <- Unmem;
      Unmem

let find r id =
  r.pending <- None;
  match resolve r id with
  | Unmem -> None
  | Mem { s; _ } -> (
      match build_shape r id with
      | exception Unmemoizable ->
          r.info.(id) <- Unmem;
          None
      | shape, sig2cid, subst -> (
          let key = { r.base_key with k_hi = s.hi; k_lo = s.lo } in
          let rec scan = function
            | [] -> None
            | e :: rest ->
                if e.e_shape = shape then Some e
                else begin
                  r.r_collisions <- r.r_collisions + 1;
                  scan rest
                end
          in
          let lookup tbl = scan (bucket_of tbl key) in
          (* Overlay order: the shared layer first (it serves every clean
             cone), then this session's own entries, then the previous
             overlay, whose hit is copied up so the next overlay can drop
             it.  A plain session has only its own table. *)
          let found =
            match Option.bind r.under lookup with
            | Some _ as e -> e
            | None -> (
                match lookup r.table with
                | Some _ as e -> e
                | None ->
                    Option.map
                      (fun e ->
                        ignore (insert r.table key e);
                        e)
                      (Option.bind r.prev lookup))
          in
          match found with
          | Some e ->
              r.r_hits <- r.r_hits + 1;
              Some (reconstruct e subst)
          | None ->
              r.r_misses <- r.r_misses + 1;
              r.pending <-
                Some { p_id = id; p_key = key; p_shape = shape; p_sig2cid = sig2cid };
              None))

let store r id table =
  match r.pending with
  | Some p when p.p_id = id -> (
      r.pending <- None;
      match
        Array.map
          (List.map (fun (s : Soi_rules.sol) ->
               {
                 c_w = s.Soi_rules.w;
                 c_h = s.Soi_rules.h;
                 c_weighted = s.Soi_rules.value.Cost.weighted;
                 c_depth = s.Soi_rules.value.Cost.depth;
                 c_raw = s.Soi_rules.value.Cost.raw;
                 c_p_dis = s.Soi_rules.p_dis;
                 c_par_b = s.Soi_rules.par_b;
                 c_has_pi = s.Soi_rules.has_pi;
                 c_disch = s.Soi_rules.disch;
                 c_structure = ctree_of p.p_sig2cid s.Soi_rules.structure;
               }))
          table
      with
      | ctable ->
          ignore (insert r.table p.p_key { e_shape = p.p_shape; e_table = ctable })
      | exception Not_found ->
          (* A structure leaf outside the subtree's signal set would be an
             engine invariant violation; abandon the store rather than
             cache something unreconstructible. *)
          ())
  | _ -> ()

let finish r =
  ignore (Atomic.fetch_and_add r.table.hits r.r_hits);
  ignore (Atomic.fetch_and_add r.table.misses r.r_misses);
  ignore (Atomic.fetch_and_add r.table.collisions r.r_collisions);
  Obs.Metrics.add m_hit r.r_hits;
  Obs.Metrics.add m_miss r.r_misses;
  Obs.Metrics.add m_collision r.r_collisions;
  (r.r_hits, r.r_misses, r.r_collisions)

(* ---------- network fingerprints for incremental remapping ---------- *)

(* Deep per-node signatures over the *whole* transitive fanin, ordered
   and identity-included — a different scheme from the memo keys on
   purpose.  Memo signatures erase leaf identity and stop at mapping
   boundaries so structurally equal cones share entries; a fingerprint
   answers the opposite question — "is this node's entire input cone
   bit-for-bit the structure it was before the edit?" — so it must
   distinguish everything the DP can see: fanin order, literal
   identity and phase, and whether each referenced node is a mapping
   boundary (fanout > 1) in this network.  Equal deep signatures are
   therefore a sound clean-marker: the DP solve of a clean node's cone
   is a pure function of what the signature hashes, so every
   memoizable lookup below it hits a table populated by the previous
   mapping.  Dirty cones are exactly the ones the engine recomputes —
   nothing is rebuilt or flushed globally, which is the
   dirty-cone-only invalidation path [Engine.remap] rides. *)

type fingerprint = { fp_sigs : signature array }

let fp_lit input positive =
  let v = Int64.of_int ((input * 2) + if positive then 1 else 0) in
  {
    hi = mix64 (Int64.add 0x27d4eb2f165667c5L v);
    lo = mix64 (Int64.add 0x85ebca77c2b2ae63L (Int64.mul v 0xff51afd7ed558ccdL));
  }

let fp_const b =
  let v = if b then 0x165667b19e3779f9L else 0x1f83d9abfb41bd6bL in
  { hi = mix64 v; lo = mix64 (Int64.mul v 0xc4ceb9fe1a85ec53L) }

let fp_boundary s =
  {
    hi = mix64 (Int64.add 0x9216d5d98979fb1bL s.hi);
    lo = mix64 (Int64.add 0x452821e638d01377L s.lo);
  }

(* Ordered: distinct multipliers on the two fanins, so mirrored fanin
   orders never collide (the DP's series composition is asymmetric). *)
let fp_node op_and a b =
  let ks = if op_and then 0xbe5466cf34e90c6cL else 0xc0ac29b7c97c50ddL in
  {
    hi =
      mix64
        (Int64.add ks
           (Int64.add
              (Int64.mul a.hi 0x9e3779b97f4a7c15L)
              (Int64.mul b.hi 0xc2b2ae3d27d4eb4fL)));
    lo =
      mix64
        (Int64.add (mix64 ks)
           (Int64.add
              (Int64.mul a.lo 0xd6e8feb86659fd93L)
              (Int64.mul b.lo 0xa0761d6478bd642fL)));
  }

let fingerprint u =
  let n = Unetwork.node_count u in
  let fanouts = Unetwork.fanout_counts u in
  let sigs = Array.make n sig_pi in
  let fin_sig = function
    | Unetwork.F_const b -> fp_const b
    | Unetwork.F_lit { input; positive } -> fp_lit input positive
    | Unetwork.F_node m ->
        if fanouts.(m) > 1 then fp_boundary sigs.(m) else sigs.(m)
  in
  for id = 0 to n - 1 do
    let nd = Unetwork.node u id in
    sigs.(id) <-
      fp_node
        (nd.Unetwork.kind = Unetwork.U_and)
        (fin_sig nd.Unetwork.fanin0)
        (fin_sig nd.Unetwork.fanin1)
  done;
  { fp_sigs = sigs }

let dirty_cones ~prev ~next =
  let seen = Hashtbl.create (max 16 (2 * Array.length prev.fp_sigs)) in
  Array.iter (fun s -> Hashtbl.replace seen (s.hi, s.lo) ()) prev.fp_sigs;
  Array.map (fun s -> not (Hashtbl.mem seen (s.hi, s.lo))) next.fp_sigs

let dirty_counts ~prev ~next =
  Array.fold_left
    (fun (dirty, clean) b ->
      if b then (dirty + 1, clean) else (dirty, clean + 1))
    (0, 0)
    (dirty_cones ~prev ~next)

let fingerprint_hex fp id =
  if id < 0 || id >= Array.length fp.fp_sigs then None
  else
    let s = fp.fp_sigs.(id) in
    Some (Printf.sprintf "%016Lx%016Lx" s.hi s.lo)

(* ---------- introspection ---------- *)

let signature_hex r id =
  if id < 0 || id >= Array.length r.info then None
  else
    match r.info.(id) with
    | Unmem -> None
    | Mem { s; _ } -> Some (Printf.sprintf "%016Lx%016Lx" s.hi s.lo)

let shape_string r id =
  if id < 0 || id >= Array.length r.info then None
  else
    match r.info.(id) with
    | Unmem -> None
    | Mem _ -> (
        match build_shape r id with
        | exception Unmemoizable -> None
        | shape, _, _ ->
            let buf = Buffer.create 64 in
            let rec render = function
              | Sh_pi cid -> Buffer.add_string buf (Printf.sprintf "p%d" cid)
              | Sh_gate { cid; level } ->
                  Buffer.add_string buf (Printf.sprintf "g%d@%d" cid level)
              | Sh_node { op_and; cid; s0; s1 } ->
                  Buffer.add_string buf
                    (Printf.sprintf "(n%d%c " cid (if op_and then '*' else '+'));
                  render s0;
                  Buffer.add_char buf ' ';
                  render s1;
                  Buffer.add_char buf ')'
            in
            render shape;
            Some (Buffer.contents buf))

let self_check t =
  let total = ref 0 in
  let error = ref None in
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      Hashtbl.iter
        (fun key bucket ->
          let expected = key.k_w_max * key.k_h_max in
          let rec pairwise = function
            | [] -> ()
            | e :: rest ->
                incr total;
                if Array.length e.e_table <> expected then
                  error :=
                    Some
                      (Printf.sprintf
                         "entry has %d slots where its key demands %d"
                         (Array.length e.e_table) expected);
                if List.exists (fun e' -> e'.e_shape = e.e_shape) rest then
                  error := Some "duplicate canonical shape under one key";
                pairwise rest
          in
          pairwise bucket)
        shard.tbl;
      Mutex.unlock shard.lock)
    t.shards;
  match !error with Some msg -> Error msg | None -> Ok !total

(* ---------- persistence ---------- *)

(* Layout: 8-byte magic, 4-byte version, 4-byte payload length, 16-byte
   MD5 digest of the payload, payload (Marshal of the sorted entry
   dump).  The digest is verified *before* unmarshalling, so a garbage
   or truncated file can never reach Marshal (which is not safe on
   arbitrary bytes). *)
let magic = "SOIDMEMO"

(* Version history: 1 = PR 5's original layout; 2 = tuples carry the
   footedness flag ([c_has_pi]) and keys carry the caller salt
   ([k_salt]).  Old files degrade to a cold start, never misread. *)
let format_version = 2

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

let dump t =
  let all = ref [] in
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      Hashtbl.iter (fun key bucket -> all := (key, bucket) :: !all) shard.tbl;
      Mutex.unlock shard.lock)
    t.shards;
  (* Sort by key so serial runs rewrite the file reproducibly. *)
  List.sort (fun (a, _) (b, _) -> compare a b) !all

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
  let data : (key * entry list) list = dump t in
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
  | () ->
      Obs.Metrics.add m_bytes (String.length payload);
      Resilience.Outcome.Ok (String.length payload)
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
      ((Marshal.from_string payload 0 : (key * entry list) list), len))

let load t file =
  if not (Sys.file_exists file) then Resilience.Outcome.Ok 0
  else
    match read_cache_file file with
    | data, bytes ->
        let added = ref 0 in
        List.iter
          (fun (key, bucket) ->
            List.iter
              (fun entry -> if insert t key entry then incr added)
              (List.rev bucket))
          data;
        Obs.Metrics.add m_bytes bytes;
        Resilience.Outcome.Ok !added
    | exception Failure msg -> degrade "memo.load" msg
    | exception Sys_error msg -> degrade "memo.load" msg
    | exception e -> degrade "memo.load" (Printexc.to_string e)
