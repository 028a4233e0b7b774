(* Differential verification subsystem (lib/check): bounded smoke fuzzing
   under dune runtest, full-suite mapper/oracle agreement, the negative
   PBE oracle, and the shrinker's own invariants. *)

open Check

(* ---------------- qcheck: the fuzz loop finds nothing ---------------- *)

(* Each trial is a small but complete fuzz run: random networks, random
   configurations, all three oracles, negative probes.  Any counterexample
   on the current mapper is a real bug. *)
let prop_fuzz_clean =
  QCheck2.Test.make ~count:25 ~name:"bounded fuzz run finds no counterexample"
    (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let report =
        Fuzz.run
          {
            Fuzz.default_params with
            Fuzz.seed;
            budget = 4;
            eval_vectors = 512;
            sim_pairs = 8;
          }
      in
      report.Report.counterexample = None)

(* Directly exercise the oracle on random (network, configuration) pairs,
   bypassing the loop, so qcheck's own shrinking stays meaningful. *)
let prop_oracle_passes =
  QCheck2.Test.make ~count:40 ~name:"oracle passes on random (net, config)"
    (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let rng = Logic.Rng.create seed in
      match Fuzz.gen_unetwork rng 400 with
      | None, _ -> QCheck2.assume_fail ()
      | Some (u, _, _), _ -> (
          let cfg = Gen_config.sample rng in
          match Oracle.check ~eval_vectors:512 ~sim_pairs:8 ~seed u cfg with
          | Oracle.Pass _ -> true
          | Oracle.Fail f ->
              QCheck2.Test.fail_reportf "%s under %s: %s"
                (Oracle.kind_name f.Oracle.kind)
                (Gen_config.describe cfg) f.Oracle.detail))

(* ---------------- full paper suite agreement ---------------- *)

let test_suite_agreement () =
  List.iter
    (fun e ->
      let net = e.Gen.Suite.build () in
      let u = Mapper.Algorithms.prepare net in
      List.iter
        (fun style ->
          let c, _ =
            Mapper.Engine.map
              { Mapper.Engine.default_options with Mapper.Engine.style }
              u
          in
          let nope v =
            Alcotest.fail
              (Format.asprintf "%s/%s: %a" e.Gen.Suite.name
                 (Gen_config.style_name style)
                 Logic.Equiv.pp_verdict v)
          in
          (* Exact per-output-cone BDDs where tractable; the big random
             benchmarks (apex6, c5315, ...) have cones whose BDDs blow up
             under any static order, so those fall back to 8192 random
             vectors and fail only on a concrete counterexample. *)
          match Domino.Circuit.equivalent_exact ~limit:200_000 c net with
          | Logic.Equiv.Equivalent -> ()
          | Logic.Equiv.Counterexample _ as v -> nope v
          | Logic.Equiv.Unknown _ -> (
              match
                Logic.Eval.counterexample ~vectors:8192 net
                  (Domino.Circuit.to_network c)
              with
              | None -> ()
              | Some (input, output) ->
                  nope (Logic.Equiv.Counterexample { input; output })))
        [ Mapper.Engine.Bulk; Mapper.Engine.Soi ])
    Gen.Suite.all

(* ---------------- the front end ---------------- *)

(* The fuzzer's front-end oracle over 300 random networks and every suite
   and extras entry: the prepared unate network computes its source, and
   the source survives a BLIF round trip.  The BLIF writer rejects the
   wide XOR covers of c499, c1355 and c1908, so those round-trip as
   their unate networks. *)
let test_frontend () =
  let expect_none name = function
    | None -> ()
    | Some f -> Alcotest.failf "%s: %s" name f.Oracle.detail
  in
  let rng = Logic.Rng.create 18 in
  for i = 1 to 300 do
    let seed = Logic.Rng.int rng 1_000_000 in
    let net =
      Gen.Random_logic.generate
        (Gen.Random_logic.default ~name:(Printf.sprintf "fe%d" i)
           ~inputs:(Logic.Rng.int_in rng 2 10) ~gates:(Logic.Rng.int_in rng 1 60)
           ~outputs:(Logic.Rng.int_in rng 1 5) ~seed)
    in
    expect_none (Logic.Network.name net)
      (Oracle.check_frontend ~net_seed:seed net (Mapper.Algorithms.prepare net))
  done;
  let limit = 100_000 in
  List.iter
    (fun e ->
      let name = e.Gen.Suite.name in
      let net = e.Gen.Suite.build () in
      let u = Mapper.Algorithms.prepare net in
      expect_none name (Oracle.check_prepare ~limit ~net_seed:0 net u);
      let blif_net =
        if List.mem name [ "c499"; "c1355"; "c1908" ] then
          Unate.Unetwork.to_network u
        else net
      in
      expect_none name (Oracle.check_roundtrip ~limit ~net_seed:0 blif_net))
    (Gen.Suite.all @ Gen.Suite.extras)

(* A small benchmark swept across the whole deterministic configuration
   grid, through all three oracles. *)
let test_grid_configs () =
  let u = Mapper.Algorithms.prepare (Gen.Suite.build_exn "z4ml") in
  List.iter
    (fun cfg ->
      match Oracle.check ~eval_vectors:256 ~sim_pairs:6 ~seed:7 u cfg with
      | Oracle.Pass _ -> ()
      | Oracle.Fail f ->
          Alcotest.fail
            (Printf.sprintf "z4ml under %s: %s (%s)" (Gen_config.describe cfg)
               f.Oracle.detail
               (Oracle.kind_name f.Oracle.kind)))
    (Gen_config.grid ())

(* ---------------- negative PBE oracle ---------------- *)

(* Unmodified SOI mappings never fire parasitic-bipolar events; stripping
   their discharge transistors must fire events on at least one of the
   sampled circuits (no single circuit is guaranteed to expose PBE — its
   stacks may carry no vulnerable junction). *)
let test_stripped_discharges_expose_pbe () =
  let exposed = ref 0 and protected_clean = ref true in
  for seed = 0 to 19 do
    let rng = Logic.Rng.create (seed * 7919) in
    match Fuzz.gen_unetwork rng 400 with
    | None, _ -> ()
    | Some (u, _, _), _ ->
        let circuit = Oracle.build u Gen_config.default in
        let n = Array.length circuit.Domino.Circuit.input_names in
        let stimulus =
          Sim.Domino_sim.hold_strike_stimulus ~rng ~pairs:24 n
        in
        let r = Sim.Domino_sim.run circuit stimulus in
        if
          r.Sim.Domino_sim.total_events > 0
          || r.Sim.Domino_sim.corrupted_cycles > 0
        then protected_clean := false;
        if (Domino.Circuit.counts circuit).Domino.Circuit.t_disch > 0 then
          if Oracle.stripped_events ~sim_pairs:24 ~seed circuit > 0 then
            incr exposed
  done;
  Alcotest.(check bool) "protected mappings never fire" true !protected_clean;
  Alcotest.(check bool) "stripping fires somewhere" true (!exposed > 0)

(* ---------------- shrinker ---------------- *)

(* Against a synthetic failure predicate the shrinker must reach the
   smallest network satisfying it — here, any network with >= 3 nodes. *)
let test_shrink_reaches_minimum () =
  let rng = Logic.Rng.create 99 in
  match Fuzz.gen_unetwork rng 400 with
  | None, _ -> Alcotest.fail "generator produced nothing"
  | Some (u, _, _), _ ->
      Alcotest.(check bool) "generator produced >= 3 nodes" true
        (Unate.Unetwork.node_count u >= 3);
      let fails u' _ = Unate.Unetwork.node_count u' >= 3 in
      let r = Shrink.minimize ~fails u Gen_config.default in
      Alcotest.(check int) "exactly 3 nodes" 3
        (Unate.Unetwork.node_count r.Shrink.u);
      Alcotest.(check bool) "still fails" true (fails r.Shrink.u r.Shrink.cfg)

let test_shrink_simplifies_config () =
  let rng = Logic.Rng.create 4242 in
  match Fuzz.gen_unetwork rng 400 with
  | None, _ -> Alcotest.fail "generator produced nothing"
  | Some (u, _, _), _ ->
      (* A predicate independent of the configuration: shrinking must
         drive every option to its simplest value. *)
      let fails u' _ = Unate.Unetwork.node_count u' >= 1 in
      let cfg0 =
        {
          Gen_config.opts =
            {
              Mapper.Engine.default_options with
              Mapper.Engine.w_max = 6;
              h_max = 9;
              both_orders = false;
              grounded_at_foot = false;
              pareto_width = 4;
              cost = Mapper.Cost.clock_weighted 2;
              rearrange = true;
            };
          rewrite = 0;
        }
      in
      let r = Shrink.minimize ~fails u cfg0 in
      let c = r.Shrink.cfg in
      Alcotest.(check int) "one node left" 1
        (Unate.Unetwork.node_count r.Shrink.u);
      Alcotest.(check int) "w_max minimal" 2 c.Gen_config.opts.Mapper.Engine.w_max;
      Alcotest.(check int) "h_max minimal" 2 c.Gen_config.opts.Mapper.Engine.h_max;
      Alcotest.(check int) "pareto_width minimal" 1
        c.Gen_config.opts.Mapper.Engine.pareto_width;
      Alcotest.(check bool) "rearrange off" false
        c.Gen_config.opts.Mapper.Engine.rearrange

(* with_structure is the shrinker's substrate: bypassing a node must
   preserve the semantics of untouched outputs. *)
let test_with_structure_renormalises () =
  let rng = Logic.Rng.create 7 in
  match Fuzz.gen_unetwork rng 400 with
  | None, _ -> Alcotest.fail "generator produced nothing"
  | Some (u, _, _), _ ->
      let open Unate in
      let nodes =
        Array.init (Unetwork.node_count u) (Unetwork.node u)
      in
      (* Identity rebuild: nothing may change functionally. *)
      let v =
        Unetwork.with_structure u ~nodes ~outputs:(Unetwork.outputs u)
      in
      Alcotest.(check bool) "identity rebuild equivalent" true
        (Logic.Eval.equivalent (Unetwork.to_network u) (Unetwork.to_network v));
      Alcotest.(check int) "no growth"
        (Unetwork.node_count u) (Unetwork.node_count v)

(* ---------------- reporting ---------------- *)

let test_report_deterministic () =
  let params = { Fuzz.default_params with Fuzz.seed = 5; budget = 10 } in
  (* Timing is wall clock — the one legitimately non-deterministic report
     field — so it is stripped before the byte comparison. *)
  let a = Report.to_json (Report.strip_timing (Fuzz.run params)) in
  let b = Report.to_json (Report.strip_timing (Fuzz.run params)) in
  Alcotest.(check string) "same seed, same report" a b

let test_report_json_fields () =
  let r = Fuzz.run { Fuzz.default_params with Fuzz.seed = 3; budget = 5 } in
  let json = Report.to_json r in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (let re = "\"" ^ key ^ "\"" in
         let rec find i =
           i + String.length re <= String.length json
           && (String.sub json i (String.length re) = re || find (i + 1))
         in
         find 0))
    [
      "seed"; "budget"; "runs"; "eval_vectors"; "sim_cycles"; "timing";
      "counterexample";
    ]

let test_json_escaping () =
  Alcotest.(check string) "quotes and newlines escaped"
    "\"a\\\"b\\nc\\\\d\""
    (Report.json_str "a\"b\nc\\d")

let test_dump_roundtrip_readable () =
  let rng = Logic.Rng.create 11 in
  match Fuzz.gen_unetwork rng 400 with
  | None, _ -> Alcotest.fail "generator produced nothing"
  | Some (u, _, _), _ ->
      let dump = Report.dump_unetwork u in
      Alcotest.(check bool) "has inputs line" true
        (String.length dump > 7 && String.sub dump 0 7 = "inputs ");
      Alcotest.(check bool) "mentions every output" true
        (Array.for_all
           (fun (nm, _) ->
             let re = "output " ^ nm ^ " = " in
             let rec find i =
               i + String.length re <= String.length dump
               && (String.sub dump i (String.length re) = re || find (i + 1))
             in
             find 0)
           (Unate.Unetwork.outputs u))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fuzz_clean;
    QCheck_alcotest.to_alcotest prop_oracle_passes;
    Alcotest.test_case "full suite agreement (bulk+soi)" `Slow
      test_suite_agreement;
    Alcotest.test_case "z4ml across the config grid" `Slow test_grid_configs;
    Alcotest.test_case "front end against its source" `Slow test_frontend;
    Alcotest.test_case "stripped discharges expose PBE" `Slow
      test_stripped_discharges_expose_pbe;
    Alcotest.test_case "shrinker reaches minimum" `Quick
      test_shrink_reaches_minimum;
    Alcotest.test_case "shrinker simplifies config" `Quick
      test_shrink_simplifies_config;
    Alcotest.test_case "with_structure renormalises" `Quick
      test_with_structure_renormalises;
    Alcotest.test_case "report deterministic" `Quick test_report_deterministic;
    Alcotest.test_case "report JSON fields" `Quick test_report_json_fields;
    Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
    Alcotest.test_case "network dump readable" `Quick
      test_dump_roundtrip_readable;
  ]
