(* The memo cache's transparency contract: mapping with a memo table —
   cold, warm, or loaded from disk — produces exactly the circuit a
   memo-free run produces, across sampled nets and configurations; and
   the persistent cache degrades to a cold start on any damaged file. *)

open Mapper

let equiv_verdict = function Logic.Equiv.Equivalent -> true | _ -> false

let stats_sans_combos (s : Engine.stats) =
  (s.Engine.nodes_processed, s.Engine.tuples_kept, s.Engine.gates_formed)

let gen_unet rng =
  let open Logic in
  let seed = Rng.int rng 1_000_000 in
  let net =
    Gen.Random_logic.generate
      (Gen.Random_logic.default
         ~name:(Printf.sprintf "memo%d" seed)
         ~inputs:(Rng.int_in rng 4 9)
         ~gates:(Rng.int_in rng 6 32)
         ~outputs:(Rng.int_in rng 1 4)
         ~seed)
  in
  Algorithms.prepare net

(* ------------------------------------------------------------------ *)
(* Memo on/off equivalence across >= 200 sampled nets x configs.       *)
(* ------------------------------------------------------------------ *)

let test_equiv_sampled () =
  let rng = Logic.Rng.create 0x3E30 in
  (* Depth worlds go through the memo too: some sampled depth
     configuration must really store tables. *)
  let depth_misses = ref 0 in
  for i = 0 to 209 do
    let u = gen_unet rng in
    let cfg = Check.Gen_config.sample rng in
    let opts = cfg.Check.Gen_config.opts in
    let plain_c, plain_s = Engine.map opts u in
    let memo = Memo.create () in
    let memo_c, memo_s = Engine.map ~memo opts u in
    if opts.Engine.cost.Cost.depth_factor > 0 then
      depth_misses := !depth_misses + (Memo.stats memo).Memo.misses;
    let ctx = Printf.sprintf "net %d (%s)" i (Check.Gen_config.describe cfg) in
    if plain_c <> memo_c then
      Alcotest.failf "%s: memoized circuit differs from plain" ctx;
    if stats_sans_combos plain_s <> stats_sans_combos memo_s then
      Alcotest.failf "%s: stats differ beyond combinations_tried" ctx;
    if memo_s.Engine.combinations_tried > plain_s.Engine.combinations_tried
    then
      Alcotest.failf "%s: memo executed more combinations than plain" ctx;
    (* A warm rerun on the same table must reproduce the circuit too. *)
    let warm_c, _ = Engine.map ~memo opts u in
    if warm_c <> plain_c then
      Alcotest.failf "%s: warm rerun differs from plain" ctx;
    (* Cross-check a slice formally against the source network. *)
    if i mod 21 = 0 then begin
      let v =
        Domino.Circuit.equivalent_exact memo_c (Unate.Unetwork.to_network u)
      in
      if not (equiv_verdict v) then
        Alcotest.failf "%s: memoized circuit not equivalent to source" ctx
    end
  done;
  Alcotest.(check bool) "some depth configuration stored tables" true
    (!depth_misses > 0)

(* ------------------------------------------------------------------ *)
(* Warm reuse and identity erasure.                                    *)
(* ------------------------------------------------------------------ *)

let test_warm_hits () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  let memo = Memo.create () in
  let cold, _ = Engine.map ~memo Engine.default_options u in
  let after_cold = Memo.stats memo in
  let warm, _ = Engine.map ~memo Engine.default_options u in
  let after_warm = Memo.stats memo in
  Alcotest.(check bool) "circuits equal" true (cold = warm);
  Alcotest.(check bool) "entries cached" true (after_cold.Memo.entries > 0);
  Alcotest.(check int) "warm run misses nothing" 0
    (after_warm.Memo.misses - after_cold.Memo.misses);
  Alcotest.(check bool) "warm run hits" true
    (after_warm.Memo.hits > after_cold.Memo.hits)

(* Signatures erase leaf identity: the same structure over different
   input names reuses the cached tables wholesale. *)
let build_pair_net names =
  let b = Logic.Builder.create ~name:"pair" () in
  let w = Array.map (fun nm -> Logic.Builder.input b nm) names in
  Logic.Builder.output b "f"
    (Logic.Builder.or2 b
       (Logic.Builder.and2 b w.(0) w.(1))
       (Logic.Builder.and2 b w.(2) w.(3)));
  Logic.Builder.network b

let test_identity_erasure () =
  let memo = Memo.create () in
  let map names =
    Engine.map ~memo Engine.default_options
      (Algorithms.prepare (build_pair_net names))
  in
  ignore (map [| "a"; "b"; "c"; "d" |]);
  let s1 = Memo.stats memo in
  let c2, _ = map [| "p"; "q"; "r"; "s" |] in
  let s2 = Memo.stats memo in
  Alcotest.(check int) "renamed instance misses nothing" 0
    (s2.Memo.misses - s1.Memo.misses);
  Alcotest.(check bool) "renamed instance hits" true
    (s2.Memo.hits > s1.Memo.hits);
  (* ... and the reconstructed circuit drives the *new* inputs. *)
  let v =
    Domino.Circuit.equivalent_exact c2
      (Unate.Unetwork.to_network
         (Algorithms.prepare (build_pair_net [| "p"; "q"; "r"; "s" |])))
  in
  Alcotest.(check bool) "reconstruction equivalent" true (equiv_verdict v)

(* ------------------------------------------------------------------ *)
(* Signature soundness and structural invariants.                      *)
(* ------------------------------------------------------------------ *)

let test_self_check_after_sweep () =
  let memo = Memo.create () in
  ignore (Multi.sweep ~memo (Gen.Suite.build_exn "cm150"));
  match Memo.self_check memo with
  | Ok n ->
      Alcotest.(check int) "checked = entries" (Memo.entry_count memo) n;
      Alcotest.(check bool) "entries cached" true (n > 0)
  | Error e -> Alcotest.failf "self-check failed: %s" e

(* The exact identity: the two AND siblings of (a*b)+(c*d) have one
   key, so the first stores an entry the second hits; the OR parent
   keys on that entry and has its own. *)
let test_introspection () =
  let u = Algorithms.prepare (build_pair_net [| "a"; "b"; "c"; "d" |]) in
  let n = Unate.Unetwork.node_count u in
  Alcotest.(check int) "fig3 decomposes to three nodes" 3 n;
  let classes = Memo.classes u ~boundary_level:(fun _ -> 1) in
  let resolved =
    List.init n (fun id ->
        match classes.(id) with
        | Some c -> (id, c)
        | None -> Alcotest.failf "node %d not resolved" id)
  in
  let equal_pairs =
    List.concat_map
      (fun (i, a) ->
        List.filter_map
          (fun (j, b) -> if i < j && a = b then Some (i, j) else None)
          resolved)
      resolved
  in
  Alcotest.(check int) "one coincident pair" 1 (List.length equal_pairs);
  let memo = Memo.create () in
  ignore (Engine.map ~memo Engine.default_options u);
  let s = Memo.stats memo in
  Alcotest.(check int) "AND siblings share one entry, the OR has its own" 2
    s.Memo.entries;
  Alcotest.(check (pair int int)) "(hits, misses)" (1, 2) (s.Memo.hits, s.Memo.misses)

(* Which leaves repeat does not change a table: (a*b)+(a*c) and
   (a*b)+(d*c) share every entry, and each still maps to its own
   memo-free circuit. *)
let test_duplicate_leaves_share () =
  let net second =
    let b = Logic.Builder.create ~name:"dup" () in
    let w = Array.map (Logic.Builder.input b) [| "a"; "b"; "c"; "d" |] in
    Logic.Builder.output b "f"
      (Logic.Builder.or2 b
         (Logic.Builder.and2 b w.(0) w.(1))
         (Logic.Builder.and2 b w.(second) w.(2)));
    Algorithms.prepare (Logic.Builder.network b)
  in
  let memo = Memo.create () in
  let check u =
    let plain, _ = Engine.map Engine.default_options u in
    let cached, _ = Engine.map ~memo Engine.default_options u in
    Alcotest.(check bool) "memo-off = memo-on" true (plain = cached)
  in
  check (net 0);
  let s1 = Memo.stats memo in
  check (net 3);
  let s2 = Memo.stats memo in
  Alcotest.(check int) "the second network misses nothing" 0
    (s2.Memo.misses - s1.Memo.misses)

(* Two domains map des through one fresh table at once: both answers
   are the memo-free map, and the table's invariants hold (one id per
   key, keys only name older entries). *)
let test_concurrent_maps () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "des") in
  let plain, _ = Engine.map Engine.default_options u in
  let memo = Memo.create () in
  let map () = fst (Engine.map ~memo Engine.default_options u) in
  let d1 = Domain.spawn map and d2 = Domain.spawn map in
  let c1 = Domain.join d1 and c2 = Domain.join d2 in
  Alcotest.(check bool) "first domain = memo-free" true (c1 = plain);
  Alcotest.(check bool) "second domain = memo-free" true (c2 = plain);
  match Memo.self_check memo with
  | Ok n -> Alcotest.(check int) "checked = entries" (Memo.entry_count memo) n
  | Error e -> Alcotest.failf "self-check failed: %s" e

(* A single-fanout chain far longer than any per-cone cap: every node is
   memoized, so a warm run misses nothing and rebuilds the circuit. *)
let test_long_chain () =
  let b = Logic.Builder.create ~name:"chain" () in
  let x = Array.init 8 (fun i -> Logic.Builder.input b (Printf.sprintf "x%d" i)) in
  let t = ref (Logic.Builder.and2 b x.(0) x.(1)) in
  for i = 2 to 700 do
    let op = if i mod 2 = 0 then Logic.Builder.or2 else Logic.Builder.and2 in
    t := op b !t x.(i mod 8)
  done;
  Logic.Builder.output b "f" !t;
  let u = Algorithms.prepare (Logic.Builder.network b) in
  Alcotest.(check bool) "chain longer than 512 nodes" true
    (Unate.Unetwork.node_count u > 512);
  let memo = Memo.create () in
  let cold, _ = Engine.map ~memo Engine.default_options u in
  let s1 = Memo.stats memo in
  let warm, _ = Engine.map ~memo Engine.default_options u in
  let s2 = Memo.stats memo in
  Alcotest.(check bool) "warm = cold" true (cold = warm);
  Alcotest.(check int) "warm run misses nothing" 0 (s2.Memo.misses - s1.Memo.misses);
  Alcotest.(check int) "every node hits" (Unate.Unetwork.node_count u)
    (s2.Memo.hits - s1.Memo.hits)

(* ------------------------------------------------------------------ *)
(* Persistence.                                                        *)
(* ------------------------------------------------------------------ *)

let temp_path suffix =
  let f = Filename.temp_file "memo_test" suffix in
  f

let test_persistent_roundtrip () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  (* A depth world round-trips like the area one: its tables hold
     formed-gate alternatives, whose leaves name a tuple, not a run. *)
  List.iter
    (fun cost ->
      let opts = { Engine.default_options with Engine.cost } in
      let check what = cost.Cost.name ^ ": " ^ what in
      let m1 = Memo.create () in
      let cold, _ = Engine.map ~memo:m1 opts u in
      let file = temp_path ".cache" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          (match Memo.save m1 file with
          | Resilience.Outcome.Ok bytes ->
              Alcotest.(check bool) (check "payload non-empty") true (bytes > 0)
          | o -> Alcotest.failf "save: %s" (Resilience.Outcome.label o));
          let m2 = Memo.create () in
          (match Memo.load m2 file with
          | Resilience.Outcome.Ok n ->
              Alcotest.(check int) (check "all entries loaded")
                (Memo.entry_count m1) n
          | o -> Alcotest.failf "load: %s" (Resilience.Outcome.label o));
          let warm, _ = Engine.map ~memo:m2 opts u in
          Alcotest.(check bool) (check "warm-from-disk equals cold") true
            (cold = warm);
          let s = Memo.stats m2 in
          Alcotest.(check int) (check "no misses from a full cache") 0
            s.Memo.misses;
          Alcotest.(check bool) (check "hits from a full cache") true
            (s.Memo.hits > 0);
          (* reloading the same file is idempotent *)
          match Memo.load m2 file with
          | Resilience.Outcome.Ok 0 -> ()
          | o ->
              Alcotest.failf "reload not idempotent: %s"
                (Resilience.Outcome.describe o)))
    [ Cost.area; Cost.depth_soi ]

(* Loading re-interns entry ids: a file saved from one network merges
   into a table that already holds another network's entries, and the
   first network then maps warm from it. *)
let test_load_reinterns () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  let m1 = Memo.create () in
  let cold, _ = Engine.map ~memo:m1 Engine.default_options u in
  let file = temp_path ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      (match Memo.save m1 file with
      | Resilience.Outcome.Ok _ -> ()
      | o -> Alcotest.failf "save: %s" (Resilience.Outcome.label o));
      let m2 = Memo.create () in
      ignore
        (Engine.map ~memo:m2 Engine.default_options
           (Algorithms.prepare (Gen.Suite.build_exn "z4ml")));
      (match Memo.load m2 file with
      | Resilience.Outcome.Ok n -> Alcotest.(check bool) "entries added" true (n > 0)
      | o -> Alcotest.failf "load: %s" (Resilience.Outcome.label o));
      let s1 = Memo.stats m2 in
      let warm, _ = Engine.map ~memo:m2 Engine.default_options u in
      let s2 = Memo.stats m2 in
      Alcotest.(check bool) "warm-from-disk equals cold" true (cold = warm);
      Alcotest.(check int) "no misses" 0 (s2.Memo.misses - s1.Memo.misses);
      match Memo.self_check m2 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "self-check failed: %s" e)

(* Concurrent writers on one --cache FILE (daemon flush racing a CLI
   save) must never leave a torn file: two domains hammer [save] with
   *different* table contents while a third loads in a loop.  Every load
   must see a complete, digest-valid payload — either writer's — and
   every entry set it observes must be one of the two written ones. *)
let test_concurrent_savers () =
  let table_for bench =
    let u = Algorithms.prepare (Gen.Suite.build_exn bench) in
    let m = Memo.create () in
    ignore (Engine.map ~memo:m Engine.default_options u);
    m
  in
  let m1 = table_for "z4ml" and m2 = table_for "cordic" in
  let n1 = Memo.entry_count m1 and n2 = Memo.entry_count m2 in
  Alcotest.(check bool) "distinguishable payloads" true (n1 <> n2);
  let file = temp_path ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      (match Memo.save m1 file with
      | Resilience.Outcome.Ok _ -> ()
      | o -> Alcotest.failf "seed save: %s" (Resilience.Outcome.label o));
      let rounds = 60 in
      let writer m =
        Domain.spawn (fun () ->
            let failed = ref 0 in
            for _ = 1 to rounds do
              match Memo.save m file with
              | Resilience.Outcome.Ok _ -> ()
              | _ -> incr failed
            done;
            !failed)
      in
      let w1 = writer m1 and w2 = writer m2 in
      let torn = ref 0 and seen = ref [] in
      for _ = 1 to rounds * 2 do
        let t = Memo.create () in
        match Memo.load t file with
        | Resilience.Outcome.Ok n ->
            if not (List.mem n !seen) then seen := n :: !seen
        | _ -> incr torn
      done;
      let f1 = Domain.join w1 and f2 = Domain.join w2 in
      Alcotest.(check int) "no save failed" 0 (f1 + f2);
      Alcotest.(check int) "no load ever saw a torn file" 0 !torn;
      List.iter
        (fun n ->
          if n <> n1 && n <> n2 then
            Alcotest.failf "reader saw a mixed payload: %d entries (writers: %d/%d)"
              n n1 n2)
        !seen;
      (* no leaked temp files: every writer's temp was renamed away *)
      let dir = Filename.dirname file and base = Filename.basename file in
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp files leak" [] leftovers)

let check_degraded name outcome =
  match outcome with
  | Resilience.Outcome.Degraded (0, [ d ]) ->
      (match d.Resilience.Outcome.reason with
      | Resilience.Budget.Cache_invalid _ -> ()
      | r ->
          Alcotest.failf "%s: wrong reason %s" name
            (Resilience.Budget.reason_to_string r));
      Alcotest.(check string) (name ^ " fallback") "cold-start"
        d.Resilience.Outcome.fallback
  | o -> Alcotest.failf "%s: expected Degraded, got %s" name (Resilience.Outcome.describe o)

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corrupt_caches () =
  (* a real cache to mutilate *)
  let u = Algorithms.prepare (Gen.Suite.build_exn "z4ml") in
  let m = Memo.create () in
  ignore (Engine.map ~memo:m Engine.default_options u);
  let good = temp_path ".cache" in
  let bad = temp_path ".cache" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ good; bad ])
    (fun () ->
      (match Memo.save m good with
      | Resilience.Outcome.Ok _ -> ()
      | o -> Alcotest.failf "save: %s" (Resilience.Outcome.label o));
      let blob = read_bytes good in
      let fresh () = Memo.create () in
      (* missing file: a normal cold start, not a degradation *)
      (match Memo.load (fresh ()) "/nonexistent/no.cache" with
      | Resilience.Outcome.Ok 0 -> ()
      | o -> Alcotest.failf "missing file: %s" (Resilience.Outcome.describe o));
      (* garbage *)
      write_bytes bad "this is not a cache file at all";
      let t = fresh () in
      check_degraded "garbage" (Memo.load t bad);
      Alcotest.(check int) "garbage leaves table empty" 0 (Memo.entry_count t);
      (* truncated: half of a valid file *)
      write_bytes bad (String.sub blob 0 (String.length blob / 2));
      check_degraded "truncated" (Memo.load (fresh ()) bad);
      (* version bump: byte 11 is the low byte of the big-endian version *)
      let bumped = Bytes.of_string blob in
      Bytes.set bumped 11 (Char.chr (Char.code (Bytes.get bumped 11) + 1));
      write_bytes bad (Bytes.to_string bumped);
      check_degraded "wrong version" (Memo.load (fresh ()) bad);
      (* flipped payload byte: digest catches it before Marshal runs *)
      let flipped = Bytes.of_string blob in
      let last = Bytes.length flipped - 1 in
      Bytes.set flipped last
        (Char.chr (Char.code (Bytes.get flipped last) lxor 0xFF));
      write_bytes bad (Bytes.to_string flipped);
      check_degraded "flipped payload" (Memo.load (fresh ()) bad);
      (* unwritable target: save degrades instead of raising *)
      match Memo.save m "/nonexistent/dir/no.cache" with
      | Resilience.Outcome.Degraded (0, _) -> ()
      | o -> Alcotest.failf "unwritable save: %s" (Resilience.Outcome.describe o))

(* The CLI contract: a damaged --cache file costs one warning line on
   stderr and a cold start, never the exit code. *)
let soimap args =
  Sys.command
    (Printf.sprintf "../bin/soimap.exe %s >/dev/null 2>/dev/null" args)

let test_cli_corrupt_cache () =
  let bad = temp_path ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
    (fun () ->
      write_bytes bad "garbage garbage garbage";
      Alcotest.(check int) "garbage cache exits 0" 0
        (soimap (Printf.sprintf "--bench mux --cache %s" (Filename.quote bad)));
      (* the run rewrote it as a valid cache; a warm rerun also exits 0 *)
      Alcotest.(check int) "warm rerun exits 0" 0
        (soimap (Printf.sprintf "--bench mux --cache %s" (Filename.quote bad))))

(* ------------------------------------------------------------------ *)
(* Coverage gaps: constants, trivial networks, budget exhaustion.      *)
(* ------------------------------------------------------------------ *)

let test_const_outputs () =
  (* f = x & ~x folds to a rail tie; memo on/off must agree on it. *)
  let n = Logic.Network.create ~name:"const" () in
  let x = Logic.Network.add_input ~name:"x" n in
  let nx = Logic.Network.add_gate n Logic.Gate.Not [| x |] in
  Logic.Network.set_output n "f"
    (Logic.Network.add_gate n Logic.Gate.And [| x; nx |]);
  let u = Algorithms.prepare n in
  let plain, _ = Engine.map Engine.default_options u in
  let memo = Memo.create () in
  let cached, _ = Engine.map ~memo Engine.default_options u in
  let warm, _ = Engine.map ~memo Engine.default_options u in
  Alcotest.(check bool) "memo-off = memo-on" true (plain = cached);
  Alcotest.(check bool) "warm agrees" true (plain = warm);
  Alcotest.(check bool) "output tied low" true
    (Array.exists
       (fun (nm, s) -> nm = "f" && s = Domino.Pdn.S_const false)
       cached.Domino.Circuit.outputs)

let test_single_node_network () =
  let b = Logic.Builder.create ~name:"tiny" () in
  let a = Logic.Builder.input b "a" and c = Logic.Builder.input b "c" in
  Logic.Builder.output b "f" (Logic.Builder.and2 b a c);
  let u = Algorithms.prepare (Logic.Builder.network b) in
  let plain, _ = Engine.map Engine.default_options u in
  let memo = Memo.create () in
  let cached, _ = Engine.map ~memo Engine.default_options u in
  let s1 = Memo.stats memo in
  let warm, _ = Engine.map ~memo Engine.default_options u in
  let s2 = Memo.stats memo in
  Alcotest.(check bool) "memo-off = memo-on" true (plain = cached);
  Alcotest.(check bool) "warm agrees" true (plain = warm);
  Alcotest.(check bool) "single node cached and reused" true
    (s2.Memo.hits > s1.Memo.hits)

let test_budget_exhaustion_bypasses_cache () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  let tiny () = Resilience.Budget.make ~max_tuples:1 () in
  let plain =
    Engine.map_outcome ~budget:(tiny ()) Engine.default_options u
  in
  let memo = Memo.create () in
  let cached =
    Engine.map_outcome ~budget:(tiny ()) ~memo Engine.default_options u
  in
  match (plain, cached) with
  | ( Resilience.Outcome.Degraded ((pc, ps), pd),
      Resilience.Outcome.Degraded ((cc, cs), cd) ) ->
      Alcotest.(check bool) "degraded circuits equal" true (pc = cc);
      Alcotest.(check bool) "degraded stats equal" true (ps = cs);
      Alcotest.(check bool) "same degradations" true (pd = cd);
      List.iter
        (fun d ->
          Alcotest.(check string) "fallback is greedy" "greedy"
            d.Resilience.Outcome.fallback)
        cd
  | _ ->
      Alcotest.failf "expected both Degraded, got %s / %s"
        (Resilience.Outcome.label plain)
        (Resilience.Outcome.label cached)

let suite =
  [
    Alcotest.test_case "equiv-210-sampled-nets" `Slow test_equiv_sampled;
    Alcotest.test_case "warm-hits" `Quick test_warm_hits;
    Alcotest.test_case "identity-erasure" `Quick test_identity_erasure;
    Alcotest.test_case "self-check-after-sweep" `Quick test_self_check_after_sweep;
    Alcotest.test_case "introspection" `Quick test_introspection;
    Alcotest.test_case "duplicate-leaves-share" `Quick test_duplicate_leaves_share;
    Alcotest.test_case "concurrent-maps" `Quick test_concurrent_maps;
    Alcotest.test_case "long-chain" `Quick test_long_chain;
    Alcotest.test_case "load-reinterns" `Quick test_load_reinterns;
    Alcotest.test_case "persistent-roundtrip" `Quick test_persistent_roundtrip;
    Alcotest.test_case "concurrent-savers" `Quick test_concurrent_savers;
    Alcotest.test_case "corrupt-caches" `Quick test_corrupt_caches;
    Alcotest.test_case "cli-corrupt-cache" `Quick test_cli_corrupt_cache;
    Alcotest.test_case "const-outputs" `Quick test_const_outputs;
    Alcotest.test_case "single-node" `Quick test_single_node_network;
    Alcotest.test_case "budget-bypass" `Quick test_budget_exhaustion_bypasses_cache;
  ]
