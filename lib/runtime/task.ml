module Fpformat = Geomix_precision.Fpformat
module Flops = Geomix_precision.Flops

type kind =
  | Potrf of int
  | Trsm of int * int
  | Syrk of int * int
  | Gemm of int * int * int

let name = function
  | Potrf k -> Printf.sprintf "POTRF(%d)" k
  | Trsm (m, k) -> Printf.sprintf "TRSM(%d,%d)" m k
  | Syrk (m, k) -> Printf.sprintf "SYRK(%d,%d)" m k
  | Gemm (m, n, k) -> Printf.sprintf "GEMM(%d,%d,%d)" m n k

let write_tile = function
  | Potrf k -> (k, k)
  | Trsm (m, k) -> (m, k)
  | Syrk (m, _) -> (m, m)
  | Gemm (m, n, _) -> (m, n)

let read_tiles = function
  | Potrf _ -> []
  | Trsm (_, k) -> [ (k, k) ]
  | Syrk (m, k) -> [ (m, k) ]
  | Gemm (m, n, k) -> [ (m, k); (n, k) ]

let exec_precision ~kernel_precision = function
  | Potrf k -> kernel_precision k k
  | Syrk (m, _) -> kernel_precision m m
  | Gemm (m, n, _) -> kernel_precision m n
  | Trsm (m, k) -> (
    match kernel_precision m k with
    | Fpformat.Fp16 | Fpformat.Fp16_32 | Fpformat.Bf16_32 -> Fpformat.Fp32
    | p -> p)

let flops ~nb = function
  | Potrf _ -> Flops.potrf nb
  | Trsm _ -> Flops.trsm nb
  | Syrk _ -> Flops.syrk nb
  | Gemm _ -> Flops.gemm nb
