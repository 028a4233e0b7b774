open Logic
open Mapper

(* The paper's Figure 3 network: f = (a*b) + (c*d). *)
let fig3_net () =
  let b = Builder.create ~name:"fig3" () in
  let a = Builder.input b "a" and b' = Builder.input b "b" in
  let c = Builder.input b "c" and d = Builder.input b "d" in
  Builder.output b "f" (Builder.or2 b (Builder.and2 b a b') (Builder.and2 b c d));
  Builder.network b

let map_fig3 style =
  let u = Algorithms.prepare (fig3_net ()) in
  let options = { Engine.default_options with Engine.style; w_max = 4; h_max = 4 } in
  Engine.map options u

let test_fig3_single_gate_cost9 () =
  (* The paper's worked example: the {2,2} solution wins, total cost 9
     (4 PDN transistors + precharge + inverter(2) + keeper + n-clock). *)
  let c, _ = map_fig3 Engine.Soi in
  Alcotest.(check int) "one gate" 1 (Array.length c.Domino.Circuit.gates);
  let counts = Domino.Circuit.counts c in
  Alcotest.(check int) "t_total 9" 9 counts.Domino.Circuit.t_total;
  Alcotest.(check int) "no discharges" 0 counts.Domino.Circuit.t_disch;
  let g = c.Domino.Circuit.gates.(0) in
  Alcotest.(check int) "width 2" 2 (Domino.Domino_gate.width g);
  Alcotest.(check int) "height 2" 2 (Domino.Domino_gate.height g);
  Alcotest.(check bool) "footed" true g.Domino.Domino_gate.footed

let test_fig3_bulk_same () =
  let c, _ = map_fig3 Engine.Bulk in
  Alcotest.(check int) "bulk also cost 9" 9
    (Domino.Circuit.counts c).Domino.Circuit.t_total

let test_wh_limits_respected () =
  List.iter
    (fun (w_max, h_max) ->
      let net = Gen.Suite.build_exn "c880" in
      let u = Algorithms.prepare net in
      let options = { Engine.default_options with Engine.w_max; h_max } in
      let c, _ = Engine.map options u in
      Array.iter
        (fun g ->
          Alcotest.(check bool) "width bound" true (Domino.Domino_gate.width g <= w_max);
          Alcotest.(check bool) "height bound" true
            (Domino.Domino_gate.height g <= h_max))
        c.Domino.Circuit.gates)
    [ (2, 2); (3, 4); (5, 8) ]

let test_invalid_limits () =
  let u = Algorithms.prepare (fig3_net ()) in
  Alcotest.check_raises "w_max 1 rejected"
    (Invalid_argument "Engine.map: w_max and h_max must be at least 2") (fun () ->
      ignore (Engine.map { Engine.default_options with Engine.w_max = 1 } u))

let test_footed_iff_pi () =
  let net = Gen.Suite.build_exn "9symml" in
  let u = Algorithms.prepare net in
  let c, _ = Engine.map Engine.default_options u in
  Array.iter
    (fun g ->
      Alcotest.(check bool) "foot matches PDN contents"
        (Domino.Pdn.has_pi_leaf g.Domino.Domino_gate.pdn)
        g.Domino.Domino_gate.footed)
    c.Domino.Circuit.gates

let test_circuit_validates () =
  List.iter
    (fun name ->
      let u = Algorithms.prepare (Gen.Suite.build_exn name) in
      List.iter
        (fun style ->
          let c, _ = Engine.map { Engine.default_options with Engine.style } u in
          match Domino.Circuit.validate c with
          | Ok () -> ()
          | Error e -> Alcotest.fail (name ^ ": " ^ e))
        [ Engine.Bulk; Engine.Soi ])
    [ "cm150"; "z4ml"; "count"; "c432"; "frg1" ]

(* Every style, reordered or not, grounded or not: each emitted gate
   carries exactly the discharges the analysis commits on its final
   PDN. *)
let test_soi_discharges_match_analysis () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "c880") in
  List.iter
    (fun (style, rearrange, grounded_at_foot) ->
      let options =
        { Engine.default_options with Engine.style; rearrange; grounded_at_foot }
      in
      let c, _ = Engine.map options u in
      let ctx =
        Printf.sprintf "%s rearrange=%b grounded=%b"
          (match style with Engine.Bulk -> "bulk" | Engine.Soi -> "soi")
          rearrange grounded_at_foot
      in
      Array.iter
        (fun g ->
          if
            g.Domino.Domino_gate.discharge_points
            <> Domino.Pbe_analysis.discharge_points ~grounded:grounded_at_foot
                 g.Domino.Domino_gate.pdn
          then
            Alcotest.failf "%s: gate %d discharges differ from analysis" ctx
              g.Domino.Domino_gate.id)
        c.Domino.Circuit.gates)
    (List.concat_map
       (fun style ->
         List.concat_map
           (fun rearrange ->
             List.map (fun grounded -> (style, rearrange, grounded)) [ true; false ])
           [ true; false ])
       [ Engine.Bulk; Engine.Soi ])

let test_multi_fanout_shared () =
  (* g = a*b feeds two consumers: it must be materialised exactly once. *)
  let b = Builder.create () in
  let a = Builder.input b "a" and b' = Builder.input b "b" in
  let c = Builder.input b "c" and d = Builder.input b "d" in
  let shared = Builder.and2 b a b' in
  Builder.output b "f" (Builder.or2 b shared c);
  Builder.output b "g" (Builder.and2 b shared d);
  let u = Algorithms.prepare (Builder.network b) in
  let circ, _ = Engine.map Engine.default_options u in
  (* The shared gate appears once; total gates = 3. *)
  Alcotest.(check int) "three gates" 3 (Array.length circ.Domino.Circuit.gates);
  Alcotest.(check bool) "equivalent" true (Domino.Circuit.equivalent_to circ u)

let test_stats_populated () =
  let u = Algorithms.prepare (fig3_net ()) in
  let _, stats = Engine.map Engine.default_options u in
  Alcotest.(check bool) "nodes processed" true (stats.Engine.nodes_processed > 0);
  Alcotest.(check bool) "combinations tried" true (stats.Engine.combinations_tried > 0);
  Alcotest.(check int) "gates formed" 1 (stats.Engine.gates_formed)

let test_determinism () =
  let count name =
    let u = Algorithms.prepare (Gen.Suite.build_exn name) in
    let c, _ = Engine.map Engine.default_options u in
    Domino.Circuit.counts c
  in
  Alcotest.(check bool) "same result twice" true (count "frg1" = count "frg1")

let test_levels_consistent () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "z4ml") in
  let c, _ = Engine.map Engine.default_options u in
  Array.iter
    (fun g ->
      let expect =
        1
        + List.fold_left
            (fun acc f -> max acc c.Domino.Circuit.gates.(f).Domino.Domino_gate.level)
            0
            (Domino.Pdn.gate_fanins g.Domino.Domino_gate.pdn)
      in
      Alcotest.(check int) "level" expect g.Domino.Domino_gate.level)
    c.Domino.Circuit.gates

let test_grounded_at_foot_ablation () =
  (* The pessimistic variant pays contingent points: never fewer discharges. *)
  List.iter
    (fun name ->
      let u = Algorithms.prepare (Gen.Suite.build_exn name) in
      let opt = Engine.default_options in
      let c1, _ = Engine.map opt u in
      let c2, _ = Engine.map { opt with Engine.grounded_at_foot = false } u in
      let d1 = (Domino.Circuit.counts c1).Domino.Circuit.t_disch in
      let d2 = (Domino.Circuit.counts c2).Domino.Circuit.t_disch in
      Alcotest.(check bool) (name ^ " pessimistic needs more") true (d2 >= d1))
    [ "cm150"; "z4ml"; "count" ]

(* The DP's work counts on two paper benchmarks, pinned.  The engine
   rejects out-of-bounds and dominated candidates from their scalars
   before it builds them, and each rejection must still count as
   exactly one pruned tuple: a check that skipped a candidate
   uncounted, or counted it twice, moves [mapper.tuples_pruned]. *)
let test_dp_count_pins () =
  let pruned () =
    Option.value ~default:0
      (List.assoc_opt "mapper.tuples_pruned" (Obs.Metrics.snapshot ()))
  in
  let was = Obs.Metrics.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      Obs.Metrics.set_enabled true;
      List.iter
        (fun (name, expect) ->
          let u = Algorithms.prepare (Gen.Suite.build_exn name) in
          let before = pruned () in
          let _, s = Engine.map Engine.default_options u in
          let got =
            [
              s.Engine.nodes_processed;
              s.Engine.tuples_kept;
              s.Engine.combinations_tried;
              s.Engine.gates_formed;
              pruned () - before;
            ]
          in
          Alcotest.(check (list int))
            (name ^ ": nodes / kept / tried / gates / pruned")
            expect got)
        [
          ("des", [ 4720; 12445; 33849; 1780; 41600 ]);
          ("c880", [ 389; 1009; 3093; 113; 4448 ]);
        ])

(* Two systhreads on one domain — the daemon's two dispatchers — mapping
   at once must each get the serial answer: the runtime switches threads
   mid-sweep, so any state two sweeps shared would hand one of them the
   other's data.  Each thread maps t481 stand-ins for a few seconds and
   every circuit must equal the serial reference. *)
let test_two_threads_one_domain () =
  let nets =
    Array.init 4 (fun k ->
        match Gen.Suite.seed_variant "t481" (k + 1) with
        | Some net -> Algorithms.prepare net
        | None -> Alcotest.fail "t481 has no seeded stand-in")
  in
  let map u = Domino.Circuit.dump (fst (Engine.map Engine.default_options u)) in
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
    Alcotest.test_case "figure 3 example costs 9" `Quick test_fig3_single_gate_cost9;
    Alcotest.test_case "figure 3 bulk baseline" `Quick test_fig3_bulk_same;
    Alcotest.test_case "W/H limits respected" `Quick test_wh_limits_respected;
    Alcotest.test_case "invalid limits rejected" `Quick test_invalid_limits;
    Alcotest.test_case "foot placement" `Quick test_footed_iff_pi;
    Alcotest.test_case "circuits validate" `Quick test_circuit_validates;
    Alcotest.test_case "SOI discharges match analysis" `Quick
      test_soi_discharges_match_analysis;
    Alcotest.test_case "multi-fanout sharing" `Quick test_multi_fanout_shared;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "levels consistent" `Quick test_levels_consistent;
    Alcotest.test_case "grounded-at-foot ablation" `Quick test_grounded_at_foot_ablation;
    Alcotest.test_case "DP count pins" `Quick test_dp_count_pins;
    Alcotest.test_case "two-threads-one-domain" `Slow test_two_threads_one_domain;
  ]
