(* The rewriting front end's soundness and payoff contracts:

   - the compiled pattern matcher finds exactly the algebraic identities
     its declarative rules describe (and rejects malformed rules);
   - every variant [Rewrite.Choices] enumerates is logically equivalent
     to the original network — checked formally, per output cone, on
     sampled random networks AND the full paper suite;
   - enumeration is deterministic, respects its limit, dedups, and
     degrades (never fails) under an exhausted budget;
   - [Mapper.Restructure.map_best] never regresses the original mapping
     and actually improves benchmarks with rewritable structure;
   - portfolio runs are memo-transparent and salt-isolated from plain
     runs of the same design;
   - the fuzz CLI is bit-identical across -j values with --rewrite. *)

open Mapper

let u_of net = Algorithms.prepare net

let gen_unet rng =
  let open Logic in
  let seed = Rng.int rng 1_000_000 in
  let net =
    Gen.Random_logic.generate
      (Gen.Random_logic.default
         ~name:(Printf.sprintf "rw%d" seed)
         ~inputs:(Rng.int_in rng 4 9)
         ~gates:(Rng.int_in rng 6 40)
         ~outputs:(Rng.int_in rng 1 4)
         ~seed)
  in
  u_of net

let check_equiv ctx u v =
  match
    Logic.Equiv.networks_per_output (Unate.Unetwork.to_network u)
      (Unate.Unetwork.to_network v)
  with
  | Logic.Equiv.Equivalent -> ()
  | Logic.Equiv.Counterexample { output; _ } ->
      Alcotest.failf "%s: variant differs from original on output %s" ctx
        output
  | Logic.Equiv.Unknown reason ->
      Alcotest.failf "%s: equivalence unknown: %s" ctx reason

(* ------------------------------------------------------------------ *)
(* Pattern compiler                                                    *)
(* ------------------------------------------------------------------ *)

let test_compile_rejects () =
  let open Rewrite.Pattern in
  let va = P_var 0 and vb = P_var 1 in
  let rejects what rule =
    match compile [ rule ] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "compile accepted %s" what
  in
  rejects "a variable-rooted lhs"
    { name = "bad"; lhs = va; rhs = T_var 0 };
  rejects "an lhs deeper than the depth-2 window"
    {
      name = "deep";
      lhs =
        P_op
          ( Unate.Unetwork.U_and,
            P_op
              ( Unate.Unetwork.U_and,
                P_op (Unate.Unetwork.U_and, va, vb),
                va ),
            vb );
      rhs = T_var 0;
    };
  rejects "an rhs variable the lhs does not bind"
    {
      name = "unbound";
      lhs = P_op (Unate.Unetwork.U_and, va, vb);
      rhs = T_var 7;
    }

let test_compile_default_rules () =
  let c = Rewrite.Rules.compiled () in
  (* Six rules, each expanded to at most 2^ops commutative orderings
     (the default set's orderings all bind differently, so none dedup):
     2 assoc rules x 4 + 2 factor rules x 8 + 2 absorb rules x 4 = 32. *)
  let n = Rewrite.Pattern.n_alternatives c in
  if n < 6 then Alcotest.failf "only %d compiled alternatives" n;
  if n > 32 then Alcotest.failf "ordering expansion overflowed: %d" n

(* The factoring rule must fire on the textbook shape, with the shared
   subterm bound nonlinearly — the window test that interprets hash-
   consed fanin equality as function equality. *)
let test_matcher_factor () =
  let net =
    let open Logic in
    let b = Builder.create ~name:"factor" () in
    let a = Builder.input b "a"
    and x = Builder.input b "x"
    and y = Builder.input b "y" in
    Builder.output b "f"
      (Builder.or2 b (Builder.and2 b a x) (Builder.and2 b a y));
    Builder.network b
  in
  let u = u_of net in
  let c = Rewrite.Rules.compiled () in
  let fired = ref false in
  for id = 0 to Unate.Unetwork.node_count u - 1 do
    List.iter
      (fun (m : Rewrite.Pattern.match_) ->
        if m.Rewrite.Pattern.m_rule.Rewrite.Pattern.name = "and-or-factor"
        then fired := true)
      (Rewrite.Pattern.matches_at c u id)
  done;
  Alcotest.(check bool) "and-or-factor fires on (a&x)|(a&y)" true !fired

let test_fingerprint () =
  let fp = Rewrite.Pattern.fingerprint in
  Alcotest.(check int)
    "fingerprint is stable" (fp Rewrite.Rules.all) Rewrite.Rules.fingerprint;
  let shorter = List.tl Rewrite.Rules.all in
  if fp shorter = fp Rewrite.Rules.all then
    Alcotest.fail "dropping a rule left the fingerprint unchanged";
  let renamed =
    match Rewrite.Rules.all with
    | r :: rest -> { r with Rewrite.Pattern.name = "renamed" } :: rest
    | [] -> assert false
  in
  if fp renamed = fp Rewrite.Rules.all then
    Alcotest.fail "renaming a rule left the fingerprint unchanged"

(* ------------------------------------------------------------------ *)
(* Choice enumeration                                                  *)
(* ------------------------------------------------------------------ *)

let test_enumerate_sound_random () =
  let rng = Logic.Rng.create 0x5E17 in
  let total = ref 0 in
  for i = 0 to 119 do
    let u = gen_unet rng in
    let variants = Rewrite.Choices.enumerate ~limit:8 u in
    total := !total + List.length variants;
    List.iter
      (fun (v : Rewrite.Choices.variant) ->
        check_equiv
          (Printf.sprintf "net %d, %s@n%d" i v.Rewrite.Choices.v_rule
             v.Rewrite.Choices.v_site)
          u v.Rewrite.Choices.v_net)
      variants
  done;
  (* The generator must actually exercise the rules, or the loop above
     proves nothing. *)
  if !total < 100 then
    Alcotest.failf "only %d variants across 120 random nets" !total

(* Bit-parallel spot check for the nets whose BDDs are intractable:
   2048 random vectors through [Unetwork.eval64] on both sides. *)
let check_eval_equiv ctx rng u v =
  let n = Array.length (Unate.Unetwork.inputs u) in
  for _ = 1 to 32 do
    let words = Array.init n (fun _ -> Logic.Rng.next64 rng) in
    let a = Unate.Unetwork.eval64 u words in
    let b = Unate.Unetwork.eval64 v words in
    let tbl = Hashtbl.create 16 in
    Array.iter (fun (nm, w) -> Hashtbl.replace tbl nm w) b;
    Array.iter
      (fun (nm, w) ->
        match Hashtbl.find_opt tbl nm with
        | Some w' when w = w' -> ()
        | Some _ -> Alcotest.failf "%s: variant differs on output %s" ctx nm
        | None -> Alcotest.failf "%s: output %s missing from variant" ctx nm)
      a
  done

let test_enumerate_sound_suite () =
  (* Full BDD proofs stay tractable on the small and mid-size entries;
     the big ISCAS nets get the bit-parallel spot check instead (their
     rewritten mappings are still proven equivalent end-to-end by the
     golden corpus and the fuzz oracles). *)
  let rng = Logic.Rng.create 0x50D1 in
  List.iter
    (fun (e : Gen.Suite.entry) ->
      let u = u_of (e.Gen.Suite.build ()) in
      let small = Unate.Unetwork.node_count u <= 300 in
      List.iter
        (fun (v : Rewrite.Choices.variant) ->
          let ctx =
            Printf.sprintf "%s, %s@n%d" e.Gen.Suite.name
              v.Rewrite.Choices.v_rule v.Rewrite.Choices.v_site
          in
          if small then check_equiv ctx u v.Rewrite.Choices.v_net
          else check_eval_equiv ctx rng u v.Rewrite.Choices.v_net)
        (Rewrite.Choices.enumerate ~limit:(if small then 8 else 4) u))
    (Gen.Suite.all @ Gen.Suite.extras)

let test_enumerate_deterministic () =
  let rng = Logic.Rng.create 0xDE7 in
  for _ = 0 to 19 do
    let u = gen_unet rng in
    let sigs vs =
      List.map
        (fun (v : Rewrite.Choices.variant) ->
          ( v.Rewrite.Choices.v_rule,
            v.Rewrite.Choices.v_site,
            Rewrite.Choices.signature v.Rewrite.Choices.v_net ))
        vs
    in
    let a = sigs (Rewrite.Choices.enumerate ~limit:8 u) in
    let b = sigs (Rewrite.Choices.enumerate ~limit:8 u) in
    if a <> b then Alcotest.fail "two enumerations of one net differ"
  done

let test_enumerate_limit_and_dedup () =
  let rng = Logic.Rng.create 0x11D0 in
  for _ = 0 to 39 do
    let u = gen_unet rng in
    let limit = 1 + Logic.Rng.int rng 6 in
    let variants = Rewrite.Choices.enumerate ~limit u in
    if List.length variants > limit then
      Alcotest.failf "limit %d produced %d variants" limit
        (List.length variants);
    let sigs =
      List.map
        (fun (v : Rewrite.Choices.variant) ->
          Rewrite.Choices.signature v.Rewrite.Choices.v_net)
        variants
    in
    let orig = Rewrite.Choices.signature u in
    if List.exists (String.equal orig) sigs then
      Alcotest.fail "a variant renormalised back to the original";
    if List.length (List.sort_uniq compare sigs) <> List.length sigs then
      Alcotest.fail "duplicate variants escaped the signature dedup"
  done

let test_enumerate_budget_degrades () =
  let u = u_of (Gen.Suite.build_exn "f51m") in
  let full = List.length (Rewrite.Choices.enumerate ~limit:8 u) in
  Alcotest.(check bool) "f51m has variants" true (full > 2);
  (* A tuple budget of 3 admits at most 2 variants (each charges its
     running count); the trip must be absorbed, not raised. *)
  let budget = Resilience.Budget.make ~max_tuples:3 () in
  let partial = Rewrite.Choices.enumerate ~budget ~limit:8 u in
  if List.length partial > 2 then
    Alcotest.failf "budget of 3 tuples yielded %d variants"
      (List.length partial)

(* ------------------------------------------------------------------ *)
(* The mapping portfolio                                               *)
(* ------------------------------------------------------------------ *)

let soi_options =
  Algorithms.options_of ~cost:Cost.area ~w_max:5 ~h_max:8 ~both_orders:true
    ~grounded_at_foot:true ~pareto_width:1 Algorithms.Soi_domino_map

let test_map_best_never_regresses () =
  let rng = Logic.Rng.create 0xBE57 in
  for i = 0 to 59 do
    let u = gen_unet rng in
    let r = Restructure.map_best soi_options u in
    let ctx = Printf.sprintf "net %d" i in
    if r.Restructure.info.Restructure.cost
       > r.Restructure.info.Restructure.original_cost
    then Alcotest.failf "%s: portfolio regressed the original" ctx;
    (* The winner's priced cost must be the winner's actual cost. *)
    let counts = Domino.Circuit.counts r.Restructure.circuit in
    Alcotest.(check int)
      (ctx ^ ": cost matches circuit")
      (Restructure.circuit_cost soi_options.Engine.cost counts)
      r.Restructure.info.Restructure.cost;
    (* And the winner must stay equivalent to the original input. *)
    if i mod 12 = 0 then begin
      match
        Logic.Equiv.networks_per_output (Unate.Unetwork.to_network u)
          (Domino.Circuit.to_network r.Restructure.circuit)
      with
      | Logic.Equiv.Equivalent -> ()
      | _ -> Alcotest.failf "%s: winner not equivalent to source" ctx
    end
  done

let test_map_best_improves () =
  (* f51m and count are the corpus's pinned portfolio wins; assert the
     improvement holds programmatically, not just as a golden byte. *)
  List.iter
    (fun bench ->
      let u = u_of (Gen.Suite.build_exn bench) in
      let r = Restructure.map_best soi_options u in
      let i = r.Restructure.info in
      if i.Restructure.cost >= i.Restructure.original_cost then
        Alcotest.failf "%s: expected a rewrite win, got %d -> %d" bench
          i.Restructure.original_cost i.Restructure.cost;
      if i.Restructure.chosen_rule = None then
        Alcotest.failf "%s: improvement without a chosen rule" bench)
    [ "f51m"; "count" ]

let test_map_best_tie_keeps_original () =
  (* fig3 has one 4-leaf cone; no rewrite can beat the optimal mapping,
     so the original must win and [chosen] must be [u] itself. *)
  let u = u_of (Gen.Suite.build_exn "fig3") in
  let r = Restructure.map_best soi_options u in
  Alcotest.(check bool)
    "original wins ties" true
    (r.Restructure.info.Restructure.chosen_rule = None
    && r.Restructure.info.Restructure.chosen_site = -1);
  Alcotest.(check string)
    "chosen is the original"
    (Rewrite.Choices.signature u)
    (Rewrite.Choices.signature r.Restructure.chosen)

let test_memo_transparent_and_salted () =
  let rng = Logic.Rng.create 0x5A17 in
  for i = 0 to 19 do
    let u = gen_unet rng in
    let fresh = Restructure.map_best soi_options u in
    let memo = Memo.create () in
    let cold = Restructure.map_best ~memo soi_options u in
    let warm = Restructure.map_best ~memo soi_options u in
    let ctx = Printf.sprintf "net %d" i in
    if cold.Restructure.circuit <> fresh.Restructure.circuit then
      Alcotest.failf "%s: memoized portfolio differs from fresh" ctx;
    if warm.Restructure.circuit <> fresh.Restructure.circuit then
      Alcotest.failf "%s: warm portfolio differs from fresh" ctx;
    (* Salt isolation: a plain run sharing the same table must ignore
       every entry the portfolio wrote (salt 0 vs salt_of), and still
       produce the plain answer. *)
    let plain_fresh, _ = Engine.map soi_options u in
    let plain_shared, _ = Engine.map ~memo soi_options u in
    if plain_shared <> plain_fresh then
      Alcotest.failf "%s: portfolio cache entries leaked into a plain run"
        ctx
  done;
  (* The salt itself: distinct limits must never share frontiers, and no
     rewrite salt may collide with the plain runs' salt 0. *)
  let s4 = Restructure.salt_of ~limit:4 and s8 = Restructure.salt_of ~limit:8 in
  if s4 = s8 then Alcotest.fail "salt_of collides across limits";
  if s4 = 0 || s8 = 0 then Alcotest.fail "salt_of collides with plain salt 0"

let test_run_rewrite_plumbing () =
  (* Algorithms.run ~rewrite: [unate] stays the original (equivalence
     checks certify the rewrite), [mapped] is the chosen variant (cone
     analyses certify the DP), and the circuit is the portfolio's. *)
  let net = Gen.Suite.build_exn "f51m" in
  let r = Algorithms.run ~rewrite:8 Algorithms.Soi_domino_map net in
  let u = u_of net in
  Alcotest.(check string)
    "unate is the original"
    (Rewrite.Choices.signature u)
    (Rewrite.Choices.signature r.Algorithms.unate);
  (match r.Algorithms.rewrite with
  | None -> Alcotest.fail "run ~rewrite:8 reported no portfolio info"
  | Some i ->
      if i.Restructure.chosen_rule <> None then begin
        if
          Rewrite.Choices.signature r.Algorithms.mapped
          = Rewrite.Choices.signature u
        then Alcotest.fail "a winning variant left [mapped] unchanged"
      end);
  check_equiv "f51m rewritten flow" u r.Algorithms.mapped;
  let off = Algorithms.run Algorithms.Soi_domino_map net in
  Alcotest.(check bool)
    "run without rewrite reports none" true (off.Algorithms.rewrite = None);
  let cost c = Restructure.circuit_cost Cost.area (Domino.Circuit.counts c) in
  if cost r.Algorithms.circuit > cost off.Algorithms.circuit then
    Alcotest.fail "run ~rewrite:8 regressed the flow"

(* ------------------------------------------------------------------ *)
(* CLI determinism                                                     *)
(* ------------------------------------------------------------------ *)

let test_fuzz_rewrite_j_deterministic () =
  let out jobs =
    let path = Filename.temp_file "fuzz-rw" (Printf.sprintf "-j%d.json" jobs) in
    let cmd =
      Printf.sprintf
        "../bin/fuzz.exe --seed 11 --budget 24 --eval-vectors 64 \
         --sim-pairs 2 --rewrite --exact-oracle --json --no-timing -j %d \
         > %s 2>/dev/null"
        jobs (Filename.quote path)
    in
    let status = Sys.command cmd in
    let ic = open_in path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    Sys.remove path;
    (status, contents)
  in
  let s1, r1 = out 1 and s4, r4 = out 4 in
  Alcotest.(check int) "same exit status" 0 s1;
  Alcotest.(check int) "same exit status" s1 s4;
  Alcotest.(check string) "byte-identical JSON report with --rewrite" r1 r4

let suite =
  [
    Alcotest.test_case "compile-rejects-malformed" `Quick test_compile_rejects;
    Alcotest.test_case "compile-default-rules" `Quick
      test_compile_default_rules;
    Alcotest.test_case "matcher-factoring" `Quick test_matcher_factor;
    Alcotest.test_case "rule-set-fingerprint" `Quick test_fingerprint;
    Alcotest.test_case "variants-sound-random" `Slow
      test_enumerate_sound_random;
    Alcotest.test_case "variants-sound-suite" `Slow test_enumerate_sound_suite;
    Alcotest.test_case "enumerate-deterministic" `Quick
      test_enumerate_deterministic;
    Alcotest.test_case "enumerate-limit-dedup" `Quick
      test_enumerate_limit_and_dedup;
    Alcotest.test_case "enumerate-budget-degrades" `Quick
      test_enumerate_budget_degrades;
    Alcotest.test_case "map-best-never-regresses" `Slow
      test_map_best_never_regresses;
    Alcotest.test_case "map-best-improves" `Quick test_map_best_improves;
    Alcotest.test_case "map-best-tie-keeps-original" `Quick
      test_map_best_tie_keeps_original;
    Alcotest.test_case "memo-transparent-salted" `Slow
      test_memo_transparent_and_salted;
    Alcotest.test_case "run-rewrite-plumbing" `Quick test_run_rewrite_plumbing;
    Alcotest.test_case "fuzz-rewrite-j-deterministic" `Slow
      test_fuzz_rewrite_j_deterministic;
  ]
