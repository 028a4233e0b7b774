type point = {
  label : string;
  cost : Cost.model;
  counts : Domino.Circuit.counts;
  delay : float;
  efficient : bool;
}

let default_portfolio =
  [
    ("area", Cost.area);
    ("clock-k2", Cost.clock_weighted 2);
    ("clock-k4", Cost.clock_weighted 4);
    ("depth", Cost.depth_soi);
  ]

let dominates a b =
  let ca = a.counts and cb = b.counts in
  ca.Domino.Circuit.t_total <= cb.Domino.Circuit.t_total
  && ca.Domino.Circuit.levels <= cb.Domino.Circuit.levels
  && ca.Domino.Circuit.t_clock <= cb.Domino.Circuit.t_clock
  && (ca.Domino.Circuit.t_total < cb.Domino.Circuit.t_total
     || ca.Domino.Circuit.levels < cb.Domino.Circuit.levels
     || ca.Domino.Circuit.t_clock < cb.Domino.Circuit.t_clock)

let sweep ?memo ?(portfolio = default_portfolio) ?w_max ?h_max ?rewrite net =
  (* Portfolio jobs are independent mapping runs over the same
     (read-only) prepared network; fan them out on the default pool.
     Result order is portfolio order, so the Pareto marking below and
     the rendered table are identical at any worker count.

     The whole portfolio shares one memo table (fresh unless the caller
     passes a warm one): jobs with distinct cost models never share
     entries — the model scalars are part of the key — so the intra-job
     structural repetition and any caller-supplied warmth are the wins,
     and the hit pattern stays schedule-independent. *)
  let memo = match memo with Some m -> m | None -> Memo.create () in
  let u = Algorithms.prepare net in
  let raw =
    Parallel.Pool.map_list_default
      (fun (label, cost) ->
        Obs.Trace.with_span ~cat:"mapper" "multi.point"
          ~args:(fun () -> [ ("objective", label) ])
        @@ fun () ->
        let r =
          Algorithms.map ~memo ~cost ?w_max ?h_max ?rewrite
            Algorithms.Soi_domino_map u
        in
        {
          label;
          cost;
          counts = r.Algorithms.counts;
          delay =
            (Domino.Timing.analyze r.Algorithms.circuit).Domino.Timing.critical_delay;
          efficient = false;
        })
      portfolio
  in
  List.map
    (fun p -> { p with efficient = not (List.exists (fun q -> dominates q p) raw) })
    raw

let render points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %8s %7s %7s %7s %8s %s\n" "objective" "Ttotal" "Tdisch"
       "levels" "Tclock" "delay" "pareto");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-10s %8d %7d %7d %7d %8.2f %s\n" p.label
           p.counts.Domino.Circuit.t_total p.counts.Domino.Circuit.t_disch
           p.counts.Domino.Circuit.levels p.counts.Domino.Circuit.t_clock p.delay
           (if p.efficient then "*" else "")))
    points;
  Buffer.contents buf
