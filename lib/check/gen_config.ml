open Mapper

(* A mapper configuration under test: engine options (stack
   rearrangement, the paper's RS_Map / SOI_Domino_Map finish, among
   them) plus the rewrite front end.  [Fuzz] samples these; [Shrink]
   simplifies them. *)

type t = {
  opts : Engine.options;
  rewrite : int;  (* rewrite-portfolio variant cap; 0 = front end off *)
}

let default =
  { opts = { Engine.default_options with Engine.rearrange = false }; rewrite = 0 }

let cost_models =
  [| Cost.area; Cost.clock_weighted 2; Cost.clock_weighted 4; Cost.depth_soi;
     Cost.depth_bulk |]

let cost_by_name name =
  Array.to_list cost_models
  |> List.find_opt (fun (m : Cost.model) -> m.Cost.name = name)

(* Uniform sample over the whole configuration space the engine
   accepts.  The draws are bound in a fixed order, so a seed names the
   same configuration as it always has. *)
let sample rng =
  let open Logic in
  let style = if Rng.bool rng then Engine.Bulk else Engine.Soi in
  let rearrange = Rng.bool rng in
  let pareto_width = Rng.int_in rng 1 4 in
  let grounded_at_foot = Rng.bool rng in
  let both_orders = Rng.bool rng in
  let cost = cost_models.(Rng.int rng (Array.length cost_models)) in
  let h_max = Rng.int_in rng 2 10 in
  let w_max = Rng.int_in rng 2 6 in
  {
    opts =
      { Engine.w_max; h_max; style; cost; both_orders; grounded_at_foot;
        pareto_width; rearrange };
    (* The rewrite front end is CLI-opted (fuzz --rewrite), not sampled:
       its soundness is what the opted-in leg tests, and the plain leg's
       seeds must keep reproducing historical runs. *)
    rewrite = 0;
  }

(* Deterministic sweep used by the suite-agreement tests: every style ×
   order heuristic × foot assumption × frontier width over three W/H
   envelopes, all under the area model. *)
let grid () =
  List.concat_map
    (fun style ->
      List.concat_map
        (fun both_orders ->
          List.concat_map
            (fun grounded_at_foot ->
              List.concat_map
                (fun pareto_width ->
                  List.map
                    (fun (w_max, h_max) ->
                      {
                        opts =
                          {
                            Engine.w_max;
                            h_max;
                            style;
                            cost = Cost.area;
                            both_orders;
                            grounded_at_foot;
                            pareto_width;
                            rearrange = false;
                          };
                        rewrite = 0;
                      })
                    [ (2, 2); (3, 4); (5, 8) ])
                [ 1; 3 ])
            [ true; false ])
        [ true; false ])
    [ Engine.Bulk; Engine.Soi ]

let style_name = function Engine.Bulk -> "bulk" | Engine.Soi -> "soi"

let describe c =
  Printf.sprintf "%s w<=%d h<=%d cost=%s orders=%s foot=%s width=%d%s"
    (style_name c.opts.Engine.style)
    c.opts.Engine.w_max c.opts.Engine.h_max c.opts.Engine.cost.Cost.name
    (if c.opts.Engine.both_orders then "both" else "heuristic")
    (if c.opts.Engine.grounded_at_foot then "grounded" else "floating")
    c.opts.Engine.pareto_width
    (if c.opts.Engine.rearrange then " +rearrange" else "")
    ^ (if c.rewrite > 0 then Printf.sprintf " +rewrite=%d" c.rewrite else "")

(* How far a configuration sits from the simplest one of its style; the
   shrinker only accepts steps that lower this. *)
let complexity c =
  c.opts.Engine.w_max + c.opts.Engine.h_max + c.opts.Engine.pareto_width
  + (if c.opts.Engine.both_orders then 0 else 1)
  + (if c.opts.Engine.grounded_at_foot then 0 else 1)
  + (if c.opts.Engine.cost.Cost.name = Cost.area.Cost.name then 0 else 1)
  + (if c.opts.Engine.rearrange then 1 else 0)
  + if c.rewrite > 0 then 1 else 0

(* One-field simplifications toward the defaults.  The style is never
   changed: a counterexample is a property of its style's rule set. *)
let simpler c =
  let o = c.opts in
  let candidates =
    [
      { c with rewrite = 0 };
      { c with opts = { o with Engine.rearrange = false } };
      { c with opts = { o with Engine.cost = Cost.area } };
      { c with opts = { o with Engine.both_orders = true } };
      { c with opts = { o with Engine.grounded_at_foot = true } };
      { c with opts = { o with Engine.pareto_width = 1 } };
      { c with opts = { o with Engine.w_max = o.Engine.w_max - 1 } };
      { c with opts = { o with Engine.h_max = o.Engine.h_max - 1 } };
    ]
  in
  List.filter
    (fun c' ->
      c'.opts.Engine.w_max >= 2 && c'.opts.Engine.h_max >= 2
      && complexity c' < complexity c)
    candidates
