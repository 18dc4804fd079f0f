package main

// paperDigests is the SHA-256 of each experiment's output at scale 1, as
// recorded from this tree. Output bytes are deterministic for any worker
// count and experiment order, so every run of the paper workload must
// reproduce them exactly. A failed check prints the digest it got.
var paperDigests = map[string]string{
	"table1":        "45b303cee04142969b5343cd2e9d72c2a3e93422282a7837cd5e713686227437",
	"fig1":          "2e0f96d26e85641420af9b54ce4eabc27cd30f33312235fdf01f23be0ebbb91a",
	"fig2":          "6ce4c53095d00a81a9b16232da9d774a0cc579c1a513fa8c7ef07d3fac8814d5",
	"table2":        "7208c2b85919ec109d94d687064902c453c3717f9986ff0ecd5c02b525d9f745",
	"table3":        "a7666b1e78d67eb83ec015493463deb97e3b621d310768df0baaf9d4593669c7",
	"table4":        "87ba9451d453e58b66ff5e0e7511b754ee153eac546bbd0230df498930dcd7fd",
	"table5":        "5f7496e569af63f918278cc8c5825f076e8efa1a07587061763731e15b2f111e",
	"fig6":          "b62c3a37a20dafccd930adb22d3b758bb190905729cb4722b4507252f16be506",
	"table6":        "0c6398e02f400b88c3911f533e92f222a807d694f27dea29390b7f14054de012",
	"fig7":          "bae29cc5a9733e18be0bfbae9ce12f117bd8f10a2b0a3e49c242848facf8e05d",
	"fig8":          "c130591aa7b3873c8aff658f36382588941a590432c3b502e3359b01011d0546",
	"fig9":          "54e51da9b68633ee44836ca4b89d937b3c529466c8bf1b1f1f282190e6f2d85c",
	"lvptsweep":     "d4b2205d78187e9e7ee8e00ddf971c68694ca286fcf7c222aca3ceb6ebee6830",
	"lctsweep":      "729ed2dded56b97d6d2279fec369e6d73604af0d52008f108639eb243e42ecea",
	"cvusweep":      "f84f29385bd4265ff33f1eeb8faf5faac9141567228248e7446cb3856cfa52c7",
	"predictors":    "6dd1c905523dbceb70c9bb6cf1507ec1e0940ce71f5ee0df3524f5028b5d2744",
	"zoosweep":      "5eb23fe2f9bebb6e515b003d623e2fe2fd636cb158fac8427765913aa38fd139",
	"gvl":           "609d3377720d30655b9474d5bbb7406aec6bca845a69c9c797382fbd36e8a8f9",
	"pathlvp":       "5087d1dc8290b1b88b66cf669f843688b8da2456047b9884d6023fe95c12bf6e",
	"mafablation":   "9e5fbde94f023c67ef4ee72bd2d762521630a5e4c1978847e93431540d1d87f6",
	"limits":        "25608e22e6462246f6f38ec310a0e2937312cd7bef3bd3c72a3b8c3d73fa88a9",
	"machines":      "08f72fab1570299021d9a7970740e7acc93d6daa1052e3023be546b32cdb55be",
	"resourcesweep": "e76db5f4e0c625aafa4afc338e397a3c221e4305e14677ce7fe4bfd9e47be1b8",
	"gvp":           "036b07f3ebcb0496e42a17b886a6e68913cdb72b0b019303f5e134efa4c893ec",
	"stalls":        "0d169a1c6ba502123d9db3b56ec5a4ebfcfc8c96ba7ad951103cc8ea0a442733",
}
