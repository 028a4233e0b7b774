open Domino

let pi i = Pdn.Leaf (Pdn.S_pi { input = i; positive = true })

let gate ?(discharge = []) pdn =
  { Domino_gate.id = 0; pdn; footed = true; discharge_points = discharge; level = 1 }

let test_single_transistor () =
  let m = Hysteresis.of_gate (gate (pi 0)) in
  Alcotest.(check int) "total" 1 m.Hysteresis.total;
  Alcotest.(check int) "clamped by ground" 1 m.Hysteresis.clamped_ground;
  Alcotest.(check int) "exposed" 0 m.Hysteresis.exposed

let test_series_pair () =
  (* A above B: A's source is the junction (exposed without discharge),
     B's source is the bottom. *)
  let p = Pdn.Series (pi 0, pi 1) in
  let m = Hysteresis.of_gate (gate p) in
  Alcotest.(check int) "exposed" 1 m.Hysteresis.exposed;
  Alcotest.(check int) "grounded" 1 m.Hysteresis.clamped_ground;
  let m' = Hysteresis.of_gate (gate ~discharge:(Pdn.series_junctions p) p) in
  Alcotest.(check int) "discharge clamps" 1 m'.Hysteresis.clamped_discharge;
  Alcotest.(check int) "no exposure left" 0 m'.Hysteresis.exposed

let test_parallel_shares_bottom () =
  let p = Pdn.Parallel (pi 0, pi 1) in
  let m = Hysteresis.of_gate (gate p) in
  Alcotest.(check int) "both grounded" 2 m.Hysteresis.clamped_ground

let test_exposure_ratio () =
  let p = Pdn.Series (pi 0, pi 1) in
  let m = Hysteresis.of_gate (gate p) in
  Alcotest.(check bool) "ratio 0.5" true (abs_float (Hysteresis.exposure m -. 0.5) < 1e-9)

let test_discharge_reduces_exposure () =
  (* Mapped circuits: removing discharge transistors can only increase
     exposure. *)
  List.iter
    (fun name ->
      let r = Mapper.Algorithms.soi_domino_map (Gen.Suite.build_exn name) in
      let m = Hysteresis.of_circuit r.Mapper.Algorithms.circuit in
      let stripped = Domino.Circuit.strip_discharges r.Mapper.Algorithms.circuit in
      let ms = Hysteresis.of_circuit stripped in
      Alcotest.(check bool) (name ^ " exposure grows when stripped") true
        (ms.Hysteresis.exposed >= m.Hysteresis.exposed);
      Alcotest.(check int) (name ^ " totals equal") m.Hysteresis.total ms.Hysteresis.total)
    [ "z4ml"; "9symml"; "c880" ]

let test_dynamic_body_counters () =
  (* The paper's Fig. 2(a) scenario: bodies drift high in the unprotected
     gate, never in the protected one. *)
  let pdn = Pdn.Series (Pdn.Parallel (Pdn.Parallel (pi 0, pi 1), pi 2), pi 3) in
  let mk discharge =
    {
      Circuit.source = "h";
      input_names = [| "A"; "B"; "C"; "D" |];
      gates = [| gate ~discharge pdn |];
      outputs = [| ("out", Pdn.S_gate 0) |];
    }
  in
  let stim = List.init 6 (fun _ -> [| true; false; false; false |]) in
  let unprotected = Sim.Domino_sim.run (mk []) stim in
  let protected_ = Sim.Domino_sim.run (mk (Pdn.series_junctions pdn)) stim in
  Alcotest.(check bool) "bodies drift when unprotected" true
    (unprotected.Sim.Domino_sim.max_bodies_high > 0);
  Alcotest.(check int) "no drift when protected" 0
    protected_.Sim.Domino_sim.max_bodies_high;
  Alcotest.(check bool) "integral orders" true
    (protected_.Sim.Domino_sim.body_high_cycle_sum
    <= unprotected.Sim.Domino_sim.body_high_cycle_sum)

let suite =
  [
    Alcotest.test_case "single transistor" `Quick test_single_transistor;
    Alcotest.test_case "series pair" `Quick test_series_pair;
    Alcotest.test_case "parallel bottom" `Quick test_parallel_shares_bottom;
    Alcotest.test_case "exposure ratio" `Quick test_exposure_ratio;
    Alcotest.test_case "discharge reduces exposure" `Quick
      test_discharge_reduces_exposure;
    Alcotest.test_case "dynamic body counters" `Quick test_dynamic_body_counters;
  ]
