(* Resource budgets for the worst-case-exponential pipeline stages.

   A budget is checked cooperatively: the DP mapper, the BDD package and
   the oracle stages call [charge_tuples]/[check_deadline] at their own
   checkpoints, and a tripped budget surfaces as the typed [Exhausted]
   exception.  Callers decide the policy — fail, or degrade to a cheaper
   algorithm ({!Outcome} carries the result of that decision).

   Deadlines are anchored on the monotonic clock ({!Obs.Clock}), not
   [Unix.gettimeofday]: a wall-clock step (NTP adjustment, manual date
   change) must neither spuriously expire a request budget nor extend
   it.  Only the monotonic *difference* since [make] is compared against
   the allowance.

   Budgets are cheap when unlimited (a field test, no clock read) and a
   single budget value is meant to be used by one task at a time; the
   shared [unlimited] value is safe everywhere because it never mutates. *)

type reason =
  | Deadline of float  (* the wall-clock allowance, in seconds *)
  | Tuple_limit of int  (* the tuple-formation allowance *)
  | Bdd_node_limit of int  (* the BDD node allowance *)
  | Injected of string  (* chaos-injected exhaustion; the site name *)
  | Cache_invalid of string  (* unusable persistent cache file *)

exception Exhausted of reason

let reason_to_string = function
  | Deadline s -> Printf.sprintf "deadline(%gs)" s
  | Tuple_limit n -> Printf.sprintf "tuple-limit(%d)" n
  | Bdd_node_limit n -> Printf.sprintf "bdd-node-limit(%d)" n
  | Injected site -> Printf.sprintf "injected(%s)" site
  | Cache_invalid msg -> Printf.sprintf "cache-invalid(%s)" msg

let pp_reason fmt r = Format.pp_print_string fmt (reason_to_string r)

type t = {
  timeout : float option;  (* relative allowance, for error reporting *)
  deadline_ns : int64 option;  (* absolute monotonic-clock cutoff *)
  max_tuples : int option;
  mutable tuples : int;  (* charged so far; only when max_tuples is set *)
  max_bdd_nodes : int option;
}

let unlimited =
  { timeout = None; deadline_ns = None; max_tuples = None; tuples = 0;
    max_bdd_nodes = None }

(* Flag-level validation, shared by the CLI and the daemon's request
   parser: a zero or non-finite timeout and non-positive caps are user
   errors that would otherwise build an always-exhausted (or silently
   unlimited) budget.  [make] itself still accepts [timeout:0.0] — the
   fuzzer uses a pre-expired deadline to exercise the timeout path
   deterministically. *)
let validate ?timeout ?max_tuples ?max_bdd_nodes () =
  match (timeout, max_tuples, max_bdd_nodes) with
  | Some s, _, _ when not (Float.is_finite s) ->
      Error "timeout must be a finite number of seconds"
  | Some s, _, _ when s <= 0.0 ->
      Error "timeout must be positive (seconds)"
  | _, Some n, _ when n < 1 -> Error "max-tuples must be at least 1"
  | _, _, Some n when n < 1 -> Error "max-bdd-nodes must be at least 1"
  | _ -> Ok ()

let make ?timeout ?max_tuples ?max_bdd_nodes () =
  (match timeout with
  | Some s when s < 0.0 || not (Float.is_finite s) ->
      invalid_arg "Budget.make: negative timeout"
  | _ -> ());
  (match max_tuples with
  | Some n when n < 1 -> invalid_arg "Budget.make: max_tuples must be positive"
  | _ -> ());
  (match max_bdd_nodes with
  | Some n when n < 1 ->
      invalid_arg "Budget.make: max_bdd_nodes must be positive"
  | _ -> ());
  {
    timeout;
    deadline_ns =
      Option.map
        (fun s -> Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (s *. 1e9)))
        timeout;
    max_tuples;
    tuples = 0;
    max_bdd_nodes;
  }

(* Every budget exhaustion funnels through [trip] so the flight
   recorder sees the event (which budget, at which checkpoint) even
   when the caller catches [Exhausted] and degrades — the recorder is
   how an operator learns *why* a request was degraded after the
   fact. *)
let trip reason =
  Obs.Flight.record ~detail:(reason_to_string reason) "budget";
  raise (Exhausted reason)

let is_unlimited b =
  b.deadline_ns = None && b.max_tuples = None && b.max_bdd_nodes = None

let max_bdd_nodes b = b.max_bdd_nodes

let check_deadline b =
  match b.deadline_ns with
  | None -> ()
  | Some cutoff ->
      if Int64.compare (Obs.Clock.now_ns ()) cutoff > 0 then
        trip (Deadline (Option.value b.timeout ~default:0.0))

let remaining_s b =
  match b.deadline_ns with
  | None -> None
  | Some cutoff ->
      Some (Obs.Clock.ns_to_s (Int64.sub cutoff (Obs.Clock.now_ns ())))

let charge_tuples b n =
  match b.max_tuples with
  | None -> ()
  | Some cap ->
      b.tuples <- b.tuples + n;
      if b.tuples > cap then trip (Tuple_limit cap)
