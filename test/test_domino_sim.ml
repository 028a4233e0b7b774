open Domino

let pi i = Pdn.Leaf (Pdn.S_pi { input = i; positive = true })

(* The paper's Figure 2(a) gate: (A + B + C) * D, footed. *)
let fig2a_pdn =
  Pdn.Series (Pdn.Parallel (Pdn.Parallel (pi 0, pi 1), pi 2), pi 3)

let fig2a ?(discharge = []) () =
  {
    Circuit.source = "fig2a";
    input_names = [| "A"; "B"; "C"; "D" |];
    gates =
      [|
        {
          Domino_gate.id = 0;
          pdn = fig2a_pdn;
          footed = true;
          discharge_points = discharge;
          level = 1;
        };
      |];
    outputs = [| ("out", Pdn.S_gate 0) |];
  }

(* Section III-B stimulus: A high for several cycles charges node 1 and the
   bodies of B and C; then A falls and D rises. *)
let iiib_stimulus =
  [
    [| true; false; false; false |];
    [| true; false; false; false |];
    [| true; false; false; false |];
    [| false; false; false; true |];
  ]

let test_paper_scenario_fails_without_discharge () =
  let r = Sim.Domino_sim.run (fig2a ()) iiib_stimulus in
  Alcotest.(check bool) "bipolar event fired" true (r.Sim.Domino_sim.total_events > 0);
  Alcotest.(check bool) "output corrupted" true (r.Sim.Domino_sim.corrupted_cycles > 0);
  (* The corruption is on the final cycle: output reads high instead of low. *)
  let last = List.nth r.Sim.Domino_sim.cycles 3 in
  Alcotest.(check (list string)) "out wrong" [ "out" ] last.Sim.Domino_sim.corrupted;
  Alcotest.(check bool) "wrong value is high" true (snd last.Sim.Domino_sim.outputs.(0))

let test_paper_scenario_fixed_by_discharge () =
  (* One p-discharge transistor on node 1 (paper Figure 2(c)). *)
  let c = fig2a ~discharge:(Pdn.series_junctions fig2a_pdn) () in
  let r = Sim.Domino_sim.run c iiib_stimulus in
  Alcotest.(check int) "no events" 0 r.Sim.Domino_sim.total_events;
  Alcotest.(check int) "no corruption" 0 r.Sim.Domino_sim.corrupted_cycles

let test_event_details () =
  let r = Sim.Domino_sim.run (fig2a ()) iiib_stimulus in
  match List.concat_map (fun c -> c.Sim.Domino_sim.events) r.Sim.Domino_sim.cycles with
  | [] -> Alcotest.fail "expected an event"
  | e :: _ ->
      Alcotest.(check int) "gate 0" 0 e.Sim.Domino_sim.gate;
      Alcotest.(check int) "final cycle" 3 e.Sim.Domino_sim.cycle;
      (* The offending devices are B or C (inputs 1 or 2). *)
      (match e.Sim.Domino_sim.signal with
      | Pdn.S_pi { input; _ } ->
          Alcotest.(check bool) "B or C" true (input = 1 || input = 2)
      | Pdn.S_gate _ | Pdn.S_const _ -> Alcotest.fail "expected a PI-driven device")

let test_body_charge_threshold () =
  (* With a 5-cycle body threshold the 3-cycle charge is insufficient. *)
  let config = { Sim.Domino_sim.default_config with Sim.Domino_sim.body_charge_cycles = 5 } in
  let r = Sim.Domino_sim.run ~config (fig2a ()) iiib_stimulus in
  Alcotest.(check int) "no events under slow body" 0 r.Sim.Domino_sim.total_events

let test_model_pbe_off () =
  let config = { Sim.Domino_sim.default_config with Sim.Domino_sim.model_pbe = false } in
  let r = Sim.Domino_sim.run ~config (fig2a ()) iiib_stimulus in
  Alcotest.(check int) "ideal simulation" 0 r.Sim.Domino_sim.total_events;
  Alcotest.(check int) "no corruption" 0 r.Sim.Domino_sim.corrupted_cycles

let test_record_only_mode () =
  let config = { Sim.Domino_sim.default_config with Sim.Domino_sim.corrupt_on_pbe = false } in
  let r = Sim.Domino_sim.run ~config (fig2a ()) iiib_stimulus in
  Alcotest.(check bool) "events recorded" true (r.Sim.Domino_sim.total_events > 0);
  Alcotest.(check int) "but outputs stay ideal" 0 r.Sim.Domino_sim.corrupted_cycles

let test_functional_match_when_protected () =
  (* A protected circuit always matches ideal evaluation under random
     stimulus. *)
  let net = Gen.Suite.build_exn "cm150" in
  let r = Mapper.Algorithms.soi_domino_map net in
  Alcotest.(check bool) "pbe free" true (Sim.Domino_sim.pbe_free r.Mapper.Algorithms.circuit)

let test_mapped_flows_pbe_free () =
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      List.iter
        (fun flow ->
          let r = Mapper.Algorithms.run flow net in
          Alcotest.(check bool)
            (name ^ "/" ^ Mapper.Algorithms.flow_name flow ^ " pbe free")
            true
            (Sim.Domino_sim.pbe_free ~cycles:128 r.Mapper.Algorithms.circuit))
        [ Mapper.Algorithms.Domino_map; Mapper.Algorithms.Rs_map;
          Mapper.Algorithms.Soi_domino_map ])
    [ "cm150"; "z4ml"; "frg1"; "9symml"; "b9" ]

let test_unprotected_bulk_fails_somewhere () =
  (* Stripping the discharge transistors from a bulk mapping must produce
     PBE failures on at least one of these circuits. *)
  let failed =
    List.exists
      (fun name ->
        let net = Gen.Suite.build_exn name in
        let r = Mapper.Algorithms.domino_map net in
        let stripped = Domino.Circuit.strip_discharges r.Mapper.Algorithms.circuit in
        not (Sim.Domino_sim.pbe_free ~cycles:512 stripped))
      [ "cm150"; "c880"; "b9" ]
  in
  Alcotest.(check bool) "stripped circuits exhibit PBE" true failed

let test_stimulus_width_checked () =
  Alcotest.check_raises "width" (Invalid_argument "Domino_sim.run: stimulus width mismatch")
    (fun () -> ignore (Sim.Domino_sim.run (fig2a ()) [ [| true |] ]))

let suite =
  [
    Alcotest.test_case "III-B scenario fails unprotected" `Quick
      test_paper_scenario_fails_without_discharge;
    Alcotest.test_case "III-B scenario fixed by p-discharge" `Quick
      test_paper_scenario_fixed_by_discharge;
    Alcotest.test_case "event details" `Quick test_event_details;
    Alcotest.test_case "body charge threshold" `Quick test_body_charge_threshold;
    Alcotest.test_case "model_pbe off" `Quick test_model_pbe_off;
    Alcotest.test_case "record-only mode" `Quick test_record_only_mode;
    Alcotest.test_case "protected mux is clean" `Quick test_functional_match_when_protected;
    Alcotest.test_case "all flows PBE-free" `Slow test_mapped_flows_pbe_free;
    Alcotest.test_case "stripped circuits fail" `Slow test_unprotected_bulk_fails_somewhere;
    Alcotest.test_case "stimulus width checked" `Quick test_stimulus_width_checked;
  ]

(* -------- exhaustive two-pattern hunt -------- *)

let test_exhaustive_hunt_finds_fig2a () =
  let c = fig2a () in
  let hunt = Sim.Domino_sim.exhaustive_pbe_hunt c in
  Alcotest.(check int) "pairs tried" (16 * 15) hunt.Sim.Domino_sim.pairs_tried;
  Alcotest.(check bool) "failures found" true (hunt.Sim.Domino_sim.failing_pairs <> []);
  (* The canonical scenario must be among the failures: hold with A high,
     strike with D high and A low. *)
  let canonical (hold, strike) =
    hold.(0) && (not hold.(3)) && strike.(3) && not strike.(0)
  in
  Alcotest.(check bool) "canonical pair found" true
    (List.exists canonical hunt.Sim.Domino_sim.failing_pairs)

let test_exhaustive_hunt_clean_when_protected () =
  let c = fig2a ~discharge:(Pdn.series_junctions fig2a_pdn) () in
  let hunt = Sim.Domino_sim.exhaustive_pbe_hunt c in
  Alcotest.(check (list (pair (array bool) (array bool)))) "no failures" []
    hunt.Sim.Domino_sim.failing_pairs

let test_exhaustive_hunt_mapped_small () =
  (* A mapped z4ml (7 inputs) passes the full two-pattern sweep. *)
  let r = Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn "z4ml") in
  let hunt = Sim.Domino_sim.exhaustive_pbe_hunt r.Mapper.Algorithms.circuit in
  Alcotest.(check bool) "no failures" true (hunt.Sim.Domino_sim.failing_pairs = [])

let test_exhaustive_hunt_limit () =
  let r = Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn "cm150") in
  match Sim.Domino_sim.exhaustive_pbe_hunt r.Mapper.Algorithms.circuit with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "20 inputs must exceed the default limit"

let suite =
  suite
  @ [
      Alcotest.test_case "exhaustive hunt finds fig2a" `Quick
        test_exhaustive_hunt_finds_fig2a;
      Alcotest.test_case "exhaustive hunt clean when protected" `Quick
        test_exhaustive_hunt_clean_when_protected;
      Alcotest.test_case "exhaustive hunt on mapped z4ml" `Slow
        test_exhaustive_hunt_mapped_small;
      Alcotest.test_case "exhaustive hunt input limit" `Quick test_exhaustive_hunt_limit;
    ]
