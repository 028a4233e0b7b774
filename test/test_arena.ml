(* The arena core's exactness contract (see arena.mli, docs/arena.md):
   the packed tuple algebra round-trips and agrees with the boxed one on
   every packable tuple, and the arena-filtered engine is
   frontier-for-frontier — and circuit-for-circuit, stat-for-stat —
   identical to the legacy boxed core, across random nets, the paper
   suite, and all three flows. *)

open Mapper

let leaf = Domino.Pdn.Leaf (Domino.Pdn.S_pi { input = 0; positive = true })

let mk_sol ~w ~h ~weighted ~depth ~raw ~p_dis ~par_b ~has_pi ~disch =
  {
    Soi_rules.w;
    h;
    value = { Cost.weighted; depth; raw };
    p_dis;
    par_b;
    has_pi;
    disch;
    structure = leaf;
  }

(* Scalar coordinates only: packed words do not carry structures. *)
let same_scalars (a : Soi_rules.sol) (b : Soi_rules.sol) =
  a.Soi_rules.w = b.Soi_rules.w
  && a.Soi_rules.h = b.Soi_rules.h
  && a.Soi_rules.value = b.Soi_rules.value
  && a.Soi_rules.p_dis = b.Soi_rules.p_dis
  && a.Soi_rules.par_b = b.Soi_rules.par_b
  && a.Soi_rules.has_pi = b.Soi_rules.has_pi
  && a.Soi_rules.disch = b.Soi_rules.disch

let sol_string (s : Soi_rules.sol) =
  Printf.sprintf "{w=%d h=%d wt=%d dp=%d raw=%d p_dis=%d par_b=%b pi=%b dis=%d}"
    s.Soi_rules.w s.Soi_rules.h s.Soi_rules.value.Cost.weighted
    s.Soi_rules.value.Cost.depth s.Soi_rules.value.Cost.raw s.Soi_rules.p_dis
    s.Soi_rules.par_b s.Soi_rules.has_pi s.Soi_rules.disch

let random_sol rng =
  let open Logic in
  (* Mostly small values (the adversarial near-equal regime), with an
     occasional large one to exercise the upper field ranges. *)
  let coord max =
    if Rng.int rng 8 = 0 then Rng.int rng (max + 1) else Rng.int rng 3
  in
  mk_sol
    ~w:(1 + coord (Arena.Packed.max_w - 1))
    ~h:(1 + coord (Arena.Packed.max_h - 1))
    ~weighted:(coord Arena.Packed.max_weighted)
    ~depth:(coord Arena.Packed.max_depth)
    ~raw:(coord Arena.Packed.max_raw)
    ~p_dis:(coord Arena.Packed.max_p_dis)
    ~par_b:(Rng.bool rng) ~has_pi:(Rng.bool rng)
    ~disch:(coord Arena.Packed.max_disch)

(* ------------------------------------------------------------------ *)
(* Pack / unpack identity.                                             *)
(* ------------------------------------------------------------------ *)

let test_pack_roundtrip () =
  let rng = Logic.Rng.create 0xA7E4A in
  for i = 0 to 9_999 do
    let s = random_sol rng in
    let w0 = Arena.Packed.pack0 s and w1 = Arena.Packed.pack1 s in
    if w0 < 0 || w1 < 0 then
      Alcotest.failf "tuple %d: in-range sol failed to pack: %s" i
        (sol_string s);
    let s' = Arena.Packed.unpack ~w0 ~w1 in
    if not (same_scalars s s') then
      Alcotest.failf "tuple %d: roundtrip %s -> %s" i (sol_string s)
        (sol_string s')
  done

(* Saturation is checked, never clamped: the maximum of each field packs,
   one past it returns the invalid sentinel. *)
let test_saturation_boundaries () =
  let base =
    mk_sol ~w:1 ~h:1 ~weighted:0 ~depth:0 ~raw:0 ~p_dis:0 ~par_b:false
      ~has_pi:false ~disch:0
  in
  let cases =
    [
      ( "weighted",
        Arena.Packed.max_weighted,
        fun v -> { base with Soi_rules.value = { base.Soi_rules.value with Cost.weighted = v } } );
      ( "depth",
        Arena.Packed.max_depth,
        fun v -> { base with Soi_rules.value = { base.Soi_rules.value with Cost.depth = v } } );
      ( "raw",
        Arena.Packed.max_raw,
        fun v -> { base with Soi_rules.value = { base.Soi_rules.value with Cost.raw = v } } );
      ("w", Arena.Packed.max_w, fun v -> { base with Soi_rules.w = v });
      ("h", Arena.Packed.max_h, fun v -> { base with Soi_rules.h = v });
      ("p_dis", Arena.Packed.max_p_dis, fun v -> { base with Soi_rules.p_dis = v });
      ("disch", Arena.Packed.max_disch, fun v -> { base with Soi_rules.disch = v });
    ]
  in
  List.iter
    (fun (name, max, mk) ->
      let at_max = mk max in
      let beyond = mk (max + 1) in
      let packs s = Arena.Packed.pack0 s >= 0 && Arena.Packed.pack1 s >= 0 in
      if not (packs at_max) then
        Alcotest.failf "%s at field maximum %d must pack" name max;
      if packs beyond then
        Alcotest.failf "%s beyond field maximum must return invalid" name;
      (* and the surviving word still decodes the max faithfully *)
      let s' =
        Arena.Packed.unpack ~w0:(Arena.Packed.pack0 at_max)
          ~w1:(Arena.Packed.pack1 at_max)
      in
      if not (same_scalars at_max s') then
        Alcotest.failf "%s at maximum corrupted by roundtrip" name)
    cases

(* ------------------------------------------------------------------ *)
(* Dominance and combination agreement on adversarial pairs.           *)
(* ------------------------------------------------------------------ *)

(* The boxed predicate, as the engine computes it (engine.ml). *)
let boxed_dominates ~depth_matters (a : Soi_rules.sol) (b : Soi_rules.sol) =
  a.Soi_rules.par_b = b.Soi_rules.par_b
  && ((not a.Soi_rules.has_pi) || b.Soi_rules.has_pi)
  && a.Soi_rules.value.Cost.weighted <= b.Soi_rules.value.Cost.weighted
  && ((not depth_matters) || a.Soi_rules.value.Cost.depth <= b.Soi_rules.value.Cost.depth)
  && a.Soi_rules.p_dis <= b.Soi_rules.p_dis

let test_dominates_agreement () =
  let rng = Logic.Rng.create 0xD031 in
  for i = 0 to 19_999 do
    let a = random_sol rng and b = random_sol rng in
    let a0 = Arena.Packed.pack0 a and a1 = Arena.Packed.pack1 a in
    let b0 = Arena.Packed.pack0 b and b1 = Arena.Packed.pack1 b in
    List.iter
      (fun depth_matters ->
        let packed = Arena.Packed.dominates ~depth_matters a0 a1 b0 b1 in
        let boxed = boxed_dominates ~depth_matters a b in
        if packed <> boxed then
          Alcotest.failf
            "pair %d (depth_matters=%b): packed=%b boxed=%b\n  a=%s\n  b=%s" i
            depth_matters packed boxed (sol_string a) (sol_string b))
      [ false; true ]
  done

let test_combine_agreement () =
  let rng = Logic.Rng.create 0xC04B in
  let models = [ Cost.area; Cost.clock_weighted 4; Cost.depth_soi ] in
  for i = 0 to 9_999 do
    (* Quartered coordinates so every boxed combination stays packable
       (or sums widths, and_soi sums heights and commits discharges). *)
    let shrink (s : Soi_rules.sol) =
      {
        s with
        Soi_rules.w = 1 + ((s.Soi_rules.w - 1) / 4);
        h = 1 + ((s.Soi_rules.h - 1) / 4);
        value =
          {
            Cost.weighted = s.Soi_rules.value.Cost.weighted / 4;
            depth = s.Soi_rules.value.Cost.depth / 2;
            raw = s.Soi_rules.value.Cost.raw / 4;
          };
        p_dis = s.Soi_rules.p_dis / 4;
        disch = s.Soi_rules.disch / 4;
      }
    in
    let a = shrink (random_sol rng) and b = shrink (random_sol rng) in
    let a0 = Arena.Packed.pack0 a and a1 = Arena.Packed.pack1 a in
    let b0 = Arena.Packed.pack0 b and b1 = Arena.Packed.pack1 b in
    List.iter
      (fun model ->
        let check name boxed p0 p1 =
          if p0 < 0 || p1 < 0 then
            Alcotest.failf "%s %d: packable combination returned invalid" name
              i
          else
            let unpacked = Arena.Packed.unpack ~w0:p0 ~w1:p1 in
            if not (same_scalars boxed unpacked) then
              Alcotest.failf "%s %d (%s): boxed %s vs packed %s" name i
                model.Cost.name (sol_string boxed) (sol_string unpacked)
        in
        check "or"
          (Soi_rules.combine_or model a b)
          (Arena.Packed.or0 a0 b0) (Arena.Packed.or1 a1 b1);
        check "and_soi"
          (Soi_rules.combine_and_soi model ~top:a ~bottom:b)
          (Arena.Packed.and_soi0 ~discharge:model.Cost.discharge ~top0:a0
             ~top1:a1 ~bottom0:b0)
          (Arena.Packed.and_soi1 ~top1:a1 ~bottom1:b1);
        check "and_bulk"
          (Soi_rules.combine_and_bulk model ~top:a ~bottom:b)
          (Arena.Packed.and_bulk0 ~top0:a0 ~bottom0:b0)
          (Arena.Packed.and_bulk1 ~top1:a1 ~bottom1:b1))
      models
  done

(* ------------------------------------------------------------------ *)
(* Frontier-for-frontier equality of arena vs boxed DP.                *)
(* ------------------------------------------------------------------ *)

let gen_unet rng =
  let open Logic in
  let seed = Rng.int rng 1_000_000 in
  let net =
    Gen.Random_logic.generate
      (Gen.Random_logic.default
         ~name:(Printf.sprintf "arena%d" seed)
         ~inputs:(Rng.int_in rng 4 9)
         ~gates:(Rng.int_in rng 6 32)
         ~outputs:(Rng.int_in rng 1 4)
         ~seed)
  in
  Algorithms.prepare net

let check_tables ctx boxed arena =
  if Array.length boxed <> Array.length arena then
    Alcotest.failf "%s: node counts differ (%d vs %d)" ctx
      (Array.length boxed) (Array.length arena);
  Array.iteri
    (fun id bt ->
      let at = arena.(id) in
      Array.iteri
        (fun slot bl ->
          let al = at.(slot) in
          if List.length bl <> List.length al then
            Alcotest.failf "%s: node %d slot %d frontier sizes %d vs %d" ctx
              id slot (List.length bl) (List.length al);
          List.iter2
            (fun b a ->
              if b <> a then
                Alcotest.failf
                  "%s: node %d slot %d frontier tuple differs\n  boxed %s\n  \
                   arena %s"
                  ctx id slot (sol_string b) (sol_string a))
            bl al)
        bt)
    boxed

let test_frontier_random_nets () =
  let rng = Logic.Rng.create 0xF40 in
  for i = 0 to 199 do
    let u = gen_unet rng in
    let cfg = Check.Gen_config.sample rng in
    let opts = cfg.Check.Gen_config.opts in
    let ctx = Printf.sprintf "net %d (%s)" i (Check.Gen_config.describe cfg) in
    let bc, bs, bt = Engine.map_tables ~core:`Boxed opts u in
    let ac, as_, at = Engine.map_tables ~core:`Arena opts u in
    check_tables ctx bt at;
    if bc <> ac then Alcotest.failf "%s: circuits differ" ctx;
    if bs <> as_ then
      Alcotest.failf "%s: stats differ (boxed %d/%d/%d/%d arena %d/%d/%d/%d)"
        ctx bs.Engine.nodes_processed bs.Engine.tuples_kept
        bs.Engine.combinations_tried bs.Engine.gates_formed
        as_.Engine.nodes_processed as_.Engine.tuples_kept
        as_.Engine.combinations_tried as_.Engine.gates_formed
  done

(* The full paper suite, across all three flows: the end-to-end circuit
   (postprocess included) and the engine stats must be identical under
   either core. *)
let test_suite_all_flows () =
  List.iter
    (fun (e : Gen.Suite.entry) ->
      let net = e.Gen.Suite.build () in
      List.iter
        (fun flow ->
          let boxed = Algorithms.run ~core:`Boxed flow net in
          let arena = Algorithms.run ~core:`Arena flow net in
          let ctx =
            Printf.sprintf "%s/%s" e.Gen.Suite.name (Algorithms.flow_name flow)
          in
          if boxed.Algorithms.circuit <> arena.Algorithms.circuit then
            Alcotest.failf "%s: circuits differ" ctx;
          if boxed.Algorithms.stats <> arena.Algorithms.stats then
            Alcotest.failf "%s: stats differ" ctx;
          if boxed.Algorithms.counts <> arena.Algorithms.counts then
            Alcotest.failf "%s: counts differ" ctx)
        [ Algorithms.Domino_map; Algorithms.Rs_map; Algorithms.Soi_domino_map ])
    Gen.Suite.all

(* Forcing [`Arena] outside the packable envelope is a caller error;
   [`Auto] on the same options silently runs boxed. *)
let test_ineligible_bounds () =
  let u = gen_unet (Logic.Rng.create 7) in
  let opts = { Engine.default_options with Engine.h_max = 1000 } in
  (match Engine.map ~core:`Arena opts u with
  | _ -> Alcotest.fail "forced arena on unpackable bounds must raise"
  | exception Invalid_argument _ -> ());
  let c_auto, _ = Engine.map ~core:`Auto opts u in
  let c_boxed, _ = Engine.map ~core:`Boxed opts u in
  Alcotest.(check bool) "auto degrades to boxed" true (c_auto = c_boxed)

(* The filter must actually fire (a bug that answered [Run_boxed]
   everywhere would pass every equality test above as a silent no-op),
   and its skip accounting must keep the pruned-tuple metric identical
   to the boxed core's. *)
let metric name snap = try List.assoc name snap with Not_found -> 0

let test_filter_effectiveness () =
  let was = Obs.Metrics.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      Obs.Metrics.set_enabled true;
      let u = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
      Obs.Metrics.reset ();
      ignore (Engine.map ~core:`Boxed Engine.default_options u);
      let boxed = Obs.Metrics.snapshot () in
      Obs.Metrics.reset ();
      ignore (Engine.map ~core:`Arena Engine.default_options u);
      let arena = Obs.Metrics.snapshot () in
      Obs.Metrics.reset ();
      let filtered = metric "arena.filtered" arena in
      Alcotest.(check bool)
        (Printf.sprintf "filter fires (%d skips)" filtered)
        true (filtered > 0);
      Alcotest.(check int) "no pack overflows on suite workloads" 0
        (metric "arena.overflow" arena);
      Alcotest.(check int) "pruned accounting identical"
        (metric "mapper.tuples_pruned" boxed)
        (metric "mapper.tuples_pruned" arena);
      Alcotest.(check int) "combinations identical"
        (metric "mapper.combinations" boxed)
        (metric "mapper.combinations" arena);
      Alcotest.(check bool) "every skip is one pruned tuple" true
        (filtered <= metric "mapper.tuples_pruned" arena))

(* Two systhreads on one domain — the daemon's two dispatchers — mapping
   at once must not share arena scratch: the runtime switches threads
   mid-sweep, so shared buffers would hand one sweep the other's packed
   fanins.  Each thread maps t481 stand-ins through the arena core for a
   few seconds and every circuit must equal the serial reference. *)
let test_two_threads_one_domain () =
  let nets =
    Array.init 4 (fun k ->
        match Gen.Suite.seed_variant "t481" (k + 1) with
        | Some net -> Algorithms.prepare net
        | None -> Alcotest.fail "t481 has no seeded stand-in")
  in
  let map u =
    Domino.Circuit.dump (fst (Engine.map ~core:`Arena Engine.default_options u))
  in
  let reference = Array.map map nets in
  let deadline = Unix.gettimeofday () +. 3.0 in
  let lock = Mutex.create () in
  let maps = ref 0 and wrong = ref [] in
  let worker offset =
    let k = ref offset in
    while Unix.gettimeofday () < deadline do
      let i = !k mod Array.length nets in
      let verdict =
        match map nets.(i) with
        | d when d = reference.(i) -> None
        | _ -> Some (Printf.sprintf "stand-in %d: circuit differs" i)
        | exception e ->
            Some (Printf.sprintf "stand-in %d: %s" i (Printexc.to_string e))
      in
      Mutex.protect lock (fun () ->
          incr maps;
          Option.iter (fun w -> wrong := w :: !wrong) verdict);
      incr k
    done
  in
  let threads = List.map (Thread.create worker) [ 0; 2 ] in
  List.iter Thread.join threads;
  (match !wrong with
  | [] -> ()
  | w :: _ ->
      Alcotest.failf "%d of %d concurrent maps wrong, e.g. %s"
        (List.length !wrong) !maps w);
  Alcotest.(check bool)
    (Printf.sprintf "both threads mapped (%d maps)" !maps)
    true (!maps >= 4)

let suite =
  [
    Alcotest.test_case "pack-roundtrip" `Quick test_pack_roundtrip;
    Alcotest.test_case "saturation-boundaries" `Quick test_saturation_boundaries;
    Alcotest.test_case "dominates-agreement" `Quick test_dominates_agreement;
    Alcotest.test_case "combine-agreement" `Quick test_combine_agreement;
    Alcotest.test_case "frontier-200-random-nets" `Slow test_frontier_random_nets;
    Alcotest.test_case "suite-all-flows" `Slow test_suite_all_flows;
    Alcotest.test_case "ineligible-bounds" `Quick test_ineligible_bounds;
    Alcotest.test_case "filter-effectiveness" `Quick test_filter_effectiveness;
    Alcotest.test_case "two-threads-one-domain" `Slow test_two_threads_one_domain;
  ]
