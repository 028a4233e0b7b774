open Domino

let pi i = Pdn.Leaf (Pdn.S_pi { input = i; positive = true })

(* Two-gate circuit: g0 = a*b (footed), g1 = g0 + c. *)
let two_gate () =
  let g0 =
    {
      Domino_gate.id = 0;
      pdn = Pdn.Series (pi 0, pi 1);
      footed = true;
      discharge_points = [];
      level = 1;
    }
  in
  let g1 =
    {
      Domino_gate.id = 1;
      pdn = Pdn.Parallel (Pdn.Leaf (Pdn.S_gate 0), pi 2);
      footed = true;
      discharge_points = [];
      level = 2;
    }
  in
  {
    Circuit.source = "two";
    input_names = [| "a"; "b"; "c" |];
    gates = [| g0; g1 |];
    outputs = [| ("f", Pdn.S_gate 1) |];
  }

let test_counts () =
  let c = Circuit.counts (two_gate ()) in
  (* g0: 2 pdn + 5 overhead; g1: 2 pdn + 5 overhead. *)
  Alcotest.(check int) "t_logic" 14 c.Circuit.t_logic;
  Alcotest.(check int) "t_disch" 0 c.Circuit.t_disch;
  Alcotest.(check int) "t_total" 14 c.Circuit.t_total;
  (* per gate: precharge + foot = 2 clocked *)
  Alcotest.(check int) "t_clock" 4 c.Circuit.t_clock;
  Alcotest.(check int) "gates" 2 c.Circuit.gate_count;
  Alcotest.(check int) "levels" 2 c.Circuit.levels;
  Alcotest.(check int) "no pi inverters" 0 c.Circuit.pi_inverters

let test_counts_with_discharge () =
  let c0 = two_gate () in
  let g0 = { c0.Circuit.gates.(0) with Domino_gate.discharge_points = [ [] ] } in
  let c = { c0 with Circuit.gates = [| g0; c0.Circuit.gates.(1) |] } in
  let counts = Circuit.counts c in
  Alcotest.(check int) "t_disch" 1 counts.Circuit.t_disch;
  Alcotest.(check int) "t_total" 15 counts.Circuit.t_total;
  Alcotest.(check int) "t_clock" 5 counts.Circuit.t_clock

let test_pi_inverter_count () =
  let c0 = two_gate () in
  let g0 =
    {
      c0.Circuit.gates.(0) with
      Domino_gate.pdn =
        Pdn.Series (Pdn.Leaf (Pdn.S_pi { input = 0; positive = false }), pi 1);
    }
  in
  let c = { c0 with Circuit.gates = [| g0; c0.Circuit.gates.(1) |] } in
  Alcotest.(check int) "one inverter" 1 (Circuit.counts c).Circuit.pi_inverters

let test_eval () =
  let c = two_gate () in
  (* f = (a & b) | c *)
  List.iter
    (fun (a, b, cc, expect) ->
      let out = Circuit.eval c [| a; b; cc |] in
      Alcotest.(check bool) "f" expect (snd out.(0)))
    [
      (true, true, false, true);
      (true, false, false, false);
      (false, false, true, true);
      (false, false, false, false);
    ]

let test_eval64_lanes () =
  let c = two_gate () in
  let words = [| 0x0F0FL; 0x3333L; 0x5555L |] in
  let packed = Circuit.eval64 c words in
  for lane = 0 to 15 do
    let bit w = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
    let single = Circuit.eval c (Array.map bit words) in
    Alcotest.(check bool) "lane" (snd single.(0)) (bit (snd packed.(0)))
  done

let test_validate_good () =
  Alcotest.(check bool) "valid" true (Circuit.validate (two_gate ()) = Ok ())

let test_validate_rejects_noncausal () =
  let c0 = two_gate () in
  let g0 =
    { c0.Circuit.gates.(0) with Domino_gate.pdn = Pdn.Series (Pdn.Leaf (Pdn.S_gate 1), pi 1) }
  in
  let c = { c0 with Circuit.gates = [| g0; c0.Circuit.gates.(1) |] } in
  Alcotest.(check bool) "rejected" true (Circuit.validate c <> Ok ())

let test_validate_rejects_bad_discharge_path () =
  let c0 = two_gate () in
  let g0 = { c0.Circuit.gates.(0) with Domino_gate.discharge_points = [ [ 0; 0 ] ] } in
  let c = { c0 with Circuit.gates = [| g0; c0.Circuit.gates.(1) |] } in
  Alcotest.(check bool) "rejected" true (Circuit.validate c <> Ok ())

let test_validate_rejects_missing_foot () =
  let c0 = two_gate () in
  let g0 = { c0.Circuit.gates.(0) with Domino_gate.footed = false } in
  let c = { c0 with Circuit.gates = [| g0; c0.Circuit.gates.(1) |] } in
  Alcotest.(check bool) "rejected" true (Circuit.validate c <> Ok ())

let test_validate_rejects_bad_level () =
  let c0 = two_gate () in
  let g1 = { c0.Circuit.gates.(1) with Domino_gate.level = 7 } in
  let c = { c0 with Circuit.gates = [| c0.Circuit.gates.(0); g1 |] } in
  Alcotest.(check bool) "rejected" true (Circuit.validate c <> Ok ())

let test_gate_accessors () =
  let g = (two_gate ()).Circuit.gates.(0) in
  Alcotest.(check int) "pdn transistors" 2 (Domino_gate.pdn_transistors g);
  Alcotest.(check int) "overhead" 5 (Domino_gate.overhead_transistors g);
  Alcotest.(check int) "logic" 7 (Domino_gate.logic_transistors g);
  Alcotest.(check int) "clock" 2 (Domino_gate.clock_transistors g);
  Alcotest.(check int) "total" 7 (Domino_gate.total_transistors g)

let test_strip_discharges () =
  let c =
    (Mapper.Algorithms.domino_map (Gen.Suite.build_exn "c880"))
      .Mapper.Algorithms.circuit
  in
  let before = Circuit.counts c in
  let after = Circuit.counts (Circuit.strip_discharges c) in
  Alcotest.(check bool) "the mapping has discharges" true
    (before.Circuit.t_disch > 0);
  Alcotest.(check int) "no discharges left" 0 after.Circuit.t_disch;
  Alcotest.(check int) "logic kept" before.Circuit.t_logic after.Circuit.t_logic

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "counts with discharge" `Quick test_counts_with_discharge;
    Alcotest.test_case "pi inverter count" `Quick test_pi_inverter_count;
    Alcotest.test_case "functional eval" `Quick test_eval;
    Alcotest.test_case "eval64 lanes" `Quick test_eval64_lanes;
    Alcotest.test_case "validate accepts good" `Quick test_validate_good;
    Alcotest.test_case "validate rejects non-causal" `Quick test_validate_rejects_noncausal;
    Alcotest.test_case "validate rejects bad discharge path" `Quick
      test_validate_rejects_bad_discharge_path;
    Alcotest.test_case "validate rejects missing foot" `Quick
      test_validate_rejects_missing_foot;
    Alcotest.test_case "validate rejects bad level" `Quick test_validate_rejects_bad_level;
    Alcotest.test_case "gate accessors" `Quick test_gate_accessors;
    Alcotest.test_case "strip discharges" `Quick test_strip_discharges;
  ]
