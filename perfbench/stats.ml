(* Order statistics over one run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile at [per_mille] / 1000 of a sorted array. *)
let rank ~per_mille n = max 1 ((per_mille * n + 999) / 1000)

let percentile ~per_mille a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~per_mille n - 1)

(* A percentile is reported only when at least [min_tail] samples lie
   beyond its rank: p90 needs 100 samples, p99 needs 1000. *)
let min_tail = 10

let supported ~per_mille n = n > 0 && n - rank ~per_mille n >= min_tail

let median xs = percentile ~per_mille:500 (sorted xs)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Timed-phase figures from one run's samples, each a pair (completion
   time since the start, latency) in completion order. The run is cut
   into consecutive windows of at least [window_samples] samples (at
   most [max_windows] of them); the throughput and each latency
   percentile are medians over the windows of the per-window figure, so
   a few seconds in which the host takes the CPU away move them less
   than they move a pooled figure. A percentile is reported only when
   every window supports it. *)
let window_samples = 120
let max_windows = 30

let timed_metrics samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  let k = max 1 (min max_windows (n / window_samples)) in
  let windows =
    List.init k (fun i ->
        let lo = i * n / k and hi = (i + 1) * n / k in
        let start = if lo = 0 then 0.0 else fst a.(lo - 1) in
        let span = Float.max 1e-9 (fst a.(hi - 1) -. start) in
        (float_of_int (hi - lo) /. span, sorted (List.init (hi - lo) (fun j -> snd a.(lo + j)))))
  in
  ("throughput_rps", median (List.map fst windows))
  :: List.filter_map
       (fun (name, per_mille) ->
         if List.for_all (fun (_, w) -> supported ~per_mille (Array.length w)) windows then
           Some
             (name, 1000.0 *. median (List.map (fun (_, w) -> percentile ~per_mille w) windows))
         else None)
       [ ("latency_p50_ms", 500); ("latency_p90_ms", 900); ("latency_p99_ms", 990) ]
